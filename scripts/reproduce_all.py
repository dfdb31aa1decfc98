"""Run every scenario with one command and collect the outputs.

Each scenario writes its CSV/report files into its own subdirectory of
--out and prints its summary block to stdout.  Seeds come from the config
unless overridden, so two invocations with the same arguments produce
byte-identical output trees.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from freqbin.config import load_config
from freqbin.scenarios import run_scenario

JOBS = [
    ("spectrum", {}),
    ("fig2", {}),
    ("fig3_5", {"pairs": "5"}),
    ("fig3_10", {"pairs": "10"}),
    ("fig3_15", {"pairs": "15"}),
    ("fig3_2-5", {"pairs": "2-5"}),
    ("fig3_2-10", {"pairs": "2-10"}),
    ("fig3_2-15", {"pairs": "2-15"}),
    ("fig4_0", {"phase": 0.0}),
    ("fig4_90", {"phase": 90.0}),
    ("fig4_180", {"phase": 180.0}),
    ("fig4_270", {"phase": 270.0}),
    ("fig5", {}),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs", help="output tree root")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for every scenario")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted and ignored; output is byte-identical "
                             "for any value")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    for label, extra in JOBS:
        scenario = label.split("_")[0]
        out_dir = os.path.join(args.out, label)
        summary = run_scenario(
            scenario, cfg, out_dir,
            seed=args.seed, workers=args.workers, **extra,
        )
        print(f"== {label} -> {out_dir}")
        print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
