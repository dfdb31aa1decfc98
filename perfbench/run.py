"""freqbin benchmark: one workload, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: figures, calibration_mc, dense_scan (see perfbench/README.md).
With --trace 0 the run measures with tracing off and reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.  The
metric names printed in the final JSON line are those BENCHMARK.json
lists.  Human-readable lines, then a ``perfbench-report`` JSON line with
everything measured, precede that last line; the report is also written
to .perfbench_out/.  Exits 1 if any correctness check fails, 2 if the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_RUNS = 5
# Counters that repeat exactly for a given seed; the self-test compares them.
DETERMINISTIC = (
    "fit.least_squares.calls", "fit.nfev", "fit.njev", "hom.hom_multi.calls",
    "rng.poisson.draws", "rng.poisson.draws_lt30", "counting.to_csv.bytes",
)


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def measure_setup() -> list[dict]:
    """Cold starts in fresh interpreters; the first one only warms caches."""
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    samples = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        if i:
            samples.append(dict(json.loads(done.stdout.splitlines()[-1]), wall_s=wall))
    return samples


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def in_ref(passes) -> list[float]:
    """Pass times in units of the reference kernel run alongside them."""
    return [p.seconds / statistics.median(p.ref_seconds) for p in passes]


def end_to_end(setup, passes, workload) -> dict:
    ops = [s for p in passes for s in p.op_seconds]
    ops_ref = [s / statistics.median(p.ref_seconds)
               for p in passes for s in p.op_seconds]
    return {
        "setup_s": (statistics.median(s["wall_s"] for s in setup), "s"),
        "pass_ref": (statistics.median(in_ref(passes)), "ref"),
        "op_ref_p90": (p90(ops_ref), "ref"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB"),
        # Wall-clock forms: what a user waits for, at today's machine speed.
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        f"{workload.op}_s_p90": (p90(ops), "s"),
        f"{workload.unit}_per_s": (
            statistics.median(p.units / p.seconds for p in passes), "1/s"),
        "ref_kernel_s": (statistics.median(r for p in passes for r in p.ref_seconds),
                         "s"),
    }


def per_layer(setup, tracers, traced, untraced) -> dict:
    first = tracers[0]

    def seconds(name, table="seconds"):
        return statistics.median(getattr(t, table)[name] for t in tracers)

    lm_calls = first.calls["fit.least_squares"]
    out = {
        "fit.fit_fringe.calls": (first.calls["fit.fit_fringe"], "count"),
        "fit.fit_fringe.s": (seconds("fit.fit_fringe"), "s"),
        "fit.fit_fringe.self_s": (seconds("fit.fit_fringe", "self_seconds"), "s"),
        "fit.fit_envelope.calls": (first.calls["fit.fit_envelope"], "count"),
        "fit.fit_envelope.s": (seconds("fit.fit_envelope"), "s"),
        "fit.least_squares.calls": (lm_calls, "count"),
        "fit.least_squares.s": (seconds("fit.least_squares"), "s"),
        "fit.nfev": (first.counts["fit.nfev"], "count"),
        "fit.njev": (first.counts["fit.njev"], "count"),
        "fit.lm_converged_ratio": (first.counts["fit.lm_converged"] / max(lm_calls, 1),
                                   "ratio"),
        "fit.reconstruct.s": (seconds("fit.reconstruct"), "s"),
        "hom.central_dip_fwhm.calls": (first.calls["hom.central_dip_fwhm"], "count"),
        "hom.central_dip_fwhm.s": (seconds("hom.central_dip_fwhm"), "s"),
        "hom.central_dip_fwhm.child_calls": (first.children["hom.central_dip_fwhm"],
                                             "count"),
        "hom.hom_multi.calls": (first.calls["hom.hom_multi"], "count"),
        "hom.hom_multi.points": (first.counts["hom.hom_multi.points"], "count"),
        "hom.hom_multi.s": (seconds("hom.hom_multi"), "s"),
        "rng.poisson.calls": (first.calls["rng.poisson"], "count"),
        "rng.poisson.draws": (first.counts["rng.poisson.draws"], "count"),
        "rng.poisson.draws_lt30": (first.counts["rng.poisson.draws_lt30"], "count"),
        "rng.poisson.s": (seconds("rng.poisson"), "s"),
        "rng.normals.draws": (first.counts["rng.normals.draws"], "count"),
        "rng.normals.s": (seconds("rng.normals"), "s"),
        "counting.simulate_fringe.calls": (first.calls["counting.simulate_fringe"],
                                           "count"),
        "counting.simulate_fringe.points": (
            first.counts["counting.simulate_fringe.points"], "count"),
        "counting.simulate_fringe.s": (seconds("counting.simulate_fringe"), "s"),
        "counting.simulate_fringe.self_s": (
            seconds("counting.simulate_fringe", "self_seconds"), "s"),
        "counting.to_csv.s": (seconds("counting.to_csv"), "s"),
        "counting.to_csv.bytes": (first.counts["counting.to_csv.bytes"], "bytes"),
        "counting.load_dataset.s": (seconds("counting.load_dataset"), "s"),
        "counting.load_dataset.bytes": (first.counts["counting.load_dataset.bytes"],
                                        "bytes"),
        "counting.roundtrip_tau_mismatch": (
            traced[0].counts.get("counting.roundtrip_tau_mismatch", 0), "count"),
        "states.hwp_angle_for_phase.calls": (
            first.calls["states.hwp_angle_for_phase"], "count"),
        "states.hwp_angle_for_phase.s": (seconds("states.hwp_angle_for_phase"), "s"),
        "states.hwp_angle_for_phase.first_s": (
            statistics.median(s["hwp_first_s"] for s in setup), "s"),
        "config.load_config.s": (statistics.median(s["load_config_s"] for s in setup),
                                 "s"),
        "scenarios.run_scenario.calls": (first.calls["scenarios.run_scenario"], "count"),
        "scenarios.run_scenario.self_s": (
            seconds("scenarios.run_scenario", "self_seconds"), "s"),
        "comb.transmission.points": (first.counts["comb.transmission.points"], "count"),
        "comb.transmission.s": (seconds("comb.transmission"), "s"),
        "wss.singles_spectrum_scan.points": (
            first.counts["wss.singles_spectrum_scan.points"], "count"),
        "wss.singles_spectrum_scan.s": (seconds("wss.singles_spectrum_scan"), "s"),
        "trace.overhead_frac": (
            statistics.median(in_ref(traced)) / statistics.median(in_ref(untraced))
            - 1.0, "ratio"),
    }
    for name in first.calls:
        if name.startswith("scenarios.job."):
            out[f"{name}.s"] = (seconds(name), "s")
    return out


def write_spans(path: str, tracer) -> None:
    origin = min((s[3] for s in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        for span_id, name, parent, start, end in sorted(tracer.spans):
            fh.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                 "start_s": start - origin, "end_s": end - origin})
                     + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    for needed in (os.path.join(src, "freqbin", "__init__.py"),
                   os.path.join(ROOT, "scripts", "reproduce_all.py"),
                   os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            print(f"perfbench: missing {needed}; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, src)
    from tracer import Tracer, tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    info = dict(machine_info(), loadavg_start=os.getloadavg())
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    setup = measure_setup()
    workload = WORKLOADS[args.workload](ROOT, args.seed,
                                        os.path.join(out_dir, args.workload))
    results = [workload.run_pass()]            # warm-up and reference outputs
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not untraced:
        untraced.append(workload.run_pass())
        if args.trace:
            tracer = Tracer()
            with tracing(tracer):
                traced.append(workload.run_pass(tracer))
            tracers.append(tracer)
    results += untraced + traced
    attempted = sum(p.attempted for p in results)
    failures = [f for p in results for f in p.failures]
    for tracer in tracers[1:]:
        attempted += 1
        if tracer.deterministic() != tracers[0].deterministic():
            failures.append("traced passes report different work counters")
    n_checks, check_failures = workload.final_checks()
    attempted += n_checks
    failures += check_failures
    info["loadavg_end"] = os.getloadavg()

    if args.trace:
        metrics = per_layer(setup, tracers, traced, untraced)
        spans_path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-spans.jsonl")
        write_spans(spans_path, tracers[0])
    else:
        metrics = end_to_end(setup, untraced, workload)
    missing = [name for name in listed if name not in metrics]
    if missing:
        print(f"perfbench: BENCHMARK.json lists unknown metrics {missing}",
              file=sys.stderr)
        return 2

    failed = len(failures)
    ops = sum(len(p.op_seconds) for p in untraced)
    print(f"workload = {workload.name}  seed = {args.seed}  trace = {args.trace}")
    print(f"passes = {len(untraced)} untraced, {len(traced)} traced; "
          f"{ops} timed operations ({workload.op}s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, value in workload.report().items():
        print(f"{name} = {value}")
    print(f"error_rate = {failed / attempted!r} ({failed} of {attempted} failed)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info,
        "setup_samples": setup,
        "passes": len(untraced), "traced_passes": len(traced),
        "timed_operations": ops, "unit": workload.unit,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "error_rate": failed / attempted, "failures": failures,
        "workload_report": workload.report(),
    }
    if args.trace:
        report["deterministic"] = {k: metrics[k][0] for k in DETERMINISTIC}
    with open(os.path.join(out_dir, f"{workload.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("perfbench-report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
