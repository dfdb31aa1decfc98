"""Command-line scenario runner.

    freqbin <scenario> [--pairs ...] [--phase ...] --config FILE --seed N
            --out DIR

Exit codes: 0 success, 2 configuration/usage error, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import load_config
from .errors import ConfigurationError, FitError, FreqbinError
from .scenarios import SCENARIOS, run_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqbin",
        description="Simulate and fit frequency-bin interference scenarios.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", default=None,
                       help="INI config file (defaults built in)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default="out",
                       help="output directory (default: out)")
        if name == "fig3":
            p.add_argument("--pairs", required=True,
                           help="pair index or range: 5, 10, 15, 2-5, 2-10, 2-15")
        if name == "fig4":
            p.add_argument("--phase", type=float, default=0.0,
                           help="prepared relative phase in degrees")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        phase = getattr(args, "phase", None)
        if phase is not None and not math.isfinite(phase):
            raise ConfigurationError(f"--phase: expected a finite number, got {phase!r}")
        summary = run_scenario(args.scenario, cfg, args.out, seed=args.seed,
                               pairs=getattr(args, "pairs", None), phase=phase)
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except FreqbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
