"""Benchmark self-test: traced runs repeat their work counters exactly.

Runs every workload twice with ``--trace 1`` and the same seed, and
requires the deterministic counters (``run.DETERMINISTIC``) to match
exactly and the final JSON line to carry exactly the per-layer metrics
BENCHMARK.json lists.  From the repository root:

    python3 perfbench/selftest.py --seed 7 --seconds 2

Exits 1 on any difference or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

from run import DETERMINISTIC, ROOT


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [m["name"] for m in spec["per_layer"]]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [traced_run(workload, args.seed, args.seconds) for _ in range(2)]
        for run in runs:
            if list(run["metrics"]) != listed:
                print(f"{workload}: metrics differ from BENCHMARK.json per_layer")
                ok = False
        counters = [{k: run["metrics"][k]["value"] for k in DETERMINISTIC}
                    for run in runs]
        same = counters[0] == counters[1]
        ok = ok and same
        print(f"{workload}: {'same' if same else 'DIFFERENT'} {counters[0]}"
              + ("" if same else f" vs {counters[1]}"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
