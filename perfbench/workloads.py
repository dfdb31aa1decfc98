"""The three benchmark workloads.

Each workload builds its inputs once from the benchmark seed and runs the
same inputs on every pass, so per-pass work counters repeat exactly.  A
pass times its operations and then checks their outputs outside the timed
region; an operation fails when it raises, gives a non-finite summary
value or fails a check.  Package functions are looked up through their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from freqbin import comb, config, counting, fit, hom, scenarios
from tracer import span

# Tolerances are the test suite's: period within 0.5% (acceptance 03),
# |phase error| <= 0.1 rad and V > 0.75 (acceptance 07), fidelity
# 0.8830 +/- 0.0005 (acceptance 01).
PERIOD_REL_TOL = 0.005
PHASE_ERR_TOL = 0.1
VISIBILITY_MIN = 0.75
FIDELITY = 0.8830
FIDELITY_TOL = 0.0005


# Fixed problem of the reference kernel: a 41-point fringe, four parameters.
_REF_T = np.linspace(-2.0, 2.0, 41)
_REF_Y = 100.0 * (0.5 - 0.4 * np.cos(2.0 * math.pi * 0.7 * _REF_T + 0.3))
_REF_STARTS = ([90.0, 0.3, 0.0, 0.69], [110.0, 0.5, 1.0, 0.71],
               [95.0, 0.2, 2.0, 0.70]) * 2


def _ref_residual(p):
    return p[0] * (0.5 - p[1] * np.cos(2.0 * math.pi * p[3] * _REF_T + p[2])) - _REF_Y


def _ref_jacobian(p):
    arg = 2.0 * math.pi * p[3] * _REF_T + p[2]
    c, s = np.cos(arg), np.sin(arg)
    return np.column_stack([0.5 - p[1] * c, -p[0] * c, p[0] * p[1] * s,
                            p[0] * p[1] * s * 2.0 * math.pi * _REF_T])


def reference_kernel() -> float:
    """Seconds taken by a fixed interpreter loop and six small MINPACK fits.

    It runs no freqbin code, and its mix (bytecode, Python callbacks,
    small numpy arrays, LM in Fortran) is the package's own, so its time
    follows the speed the machine gives this process at the moment.
    Dividing a pass's time by the median of the kernel runs taken during
    it cancels most of the CPU contention from other tenants, while a
    change to the package still shows in full.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        acc += (i * 0.5) % 7.0
    for x0 in _REF_STARTS:
        least_squares(_ref_residual, x0, jac=_ref_jacobian, method="lm",
                      xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return time.perf_counter() - start


class _Clock:
    """Timed seconds of one pass, with a reference-kernel run before each segment."""

    def __init__(self):
        self.elapsed = 0.0
        self.refs: list[float] = []

    @contextlib.contextmanager
    def segment(self):
        self.refs.append(reference_kernel())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - start


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[float]
    ref_seconds: list[float]
    units: int
    attempted: int
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def derived_seeds(seed: int, n: int) -> list[int]:
    """n well-mixed 32-bit seeds from the benchmark seed (any integer)."""
    return [int(s) for s in np.random.SeedSequence(seed % 2**64).generate_state(n)]


def _failure(label: str) -> str:
    text = traceback.format_exc()
    print(text, end="", file=sys.stderr, flush=True)
    return f"{label}: {text.strip().splitlines()[-1]}"


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _stock_geometry(cfg):
    """Envelope, revival-snapped delay offset and phase of the stock scenarios."""
    env = hom.Envelope.from_fwhm(cfg.resonator.fwhm)
    period = hom.revival_period(cfg.resonator.fsr)
    tau0 = round(cfg.tau0 / period) * period
    return env, tau0, cfg.theta + cfg.phi_instr


def _detuning(cfg, m: int) -> float:
    return float(comb.pair_for_index(cfg.resonator, m).detuning)


def _accidental(cfg, channels: int) -> float:
    return counting.accidental_rate(cfg.singles_signal * channels,
                                    cfg.singles_idler * channels,
                                    cfg.detector.coincidence_window)


def summary_numbers(text: str) -> dict[str, list[float]]:
    """key -> numbers of every `key = value [+/- sigma]` line that is numeric."""
    out = {}
    for line in text.splitlines():
        key, sep, rhs = line.partition(" = ")
        if not sep:
            continue
        try:
            out[key] = [float(tok) for tok in rhs.split(" +/- ")]
        except ValueError:
            continue
    return out


def check_summary(numbers: dict[str, list[float]]) -> list[str]:
    """Problems with one scenario summary; empty when it passes."""
    problems = [f"{k} is not finite" for k, v in numbers.items() if not _finite(v)]
    if "period_fit_ps" in numbers:
        fitted = numbers["period_fit_ps"][0]
        expected = numbers["period_expected_ps"][0]
        if not abs(fitted - expected) <= PERIOD_REL_TOL * expected:
            problems.append(f"period {fitted!r} ps vs expected {expected!r} ps")
    for stem in ("single", "multi"):
        if f"{stem}_phi_error" in numbers:
            err = numbers[f"{stem}_phi_error"][0]
            vis = numbers[f"{stem}_visibility"][0]
            if not abs(err) <= PHASE_ERR_TOL:
                problems.append(f"{stem} phase error {err!r} rad")
            if not vis > VISIBILITY_MIN:
                problems.append(f"{stem} visibility {vis!r}")
    if "fidelity" in numbers:
        f = numbers["fidelity"][0]
        if not abs(f - FIDELITY) <= FIDELITY_TOL:
            problems.append(f"fidelity {f!r}")
    return problems


def tree_sha256(root: str) -> str:
    """Digest of every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(f"{rel}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def load_jobs(root: str):
    """The JOBS list of scripts/reproduce_all.py."""
    path = os.path.join(root, "scripts", "reproduce_all.py")
    spec = importlib.util.spec_from_file_location("reproduce_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


class Figures:
    """The 13 jobs of scripts/reproduce_all.py at the stock config.

    The benchmark seed overrides the config seed.  One operation is one
    job; every pass rewrites the output tree, which must hash the same.
    """

    name = "figures"
    unit = "jobs"
    op = "job"

    def __init__(self, root: str, seed: int, out_dir: str):
        self.jobs = load_jobs(root)
        self.cfg = config.load_config(None)
        self.seed = seed
        self.out_dir = out_dir
        self.tree_digest = None

    def run_pass(self, tracer=None) -> PassResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        clock, ops, summaries, failures = _Clock(), [], {}, []
        for label, extra in self.jobs:
            before = clock.elapsed
            try:
                with clock.segment(), span(tracer, f"scenarios.job.{label}"):
                    summaries[label] = scenarios.run_scenario(
                        label.split("_")[0], self.cfg,
                        os.path.join(self.out_dir, label),
                        seed=self.seed, workers=1, **extra)
            except Exception:
                failures.append(_failure(label))
            ops.append(clock.elapsed - before)
        for label, text in summaries.items():
            problems = check_summary(summary_numbers(text))
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
        digest = tree_sha256(self.out_dir)
        if self.tree_digest is None:
            self.tree_digest = digest
        elif digest != self.tree_digest:
            failures.append("output tree differs from the first pass")
        return PassResult(clock.elapsed, ops, clock.refs, len(self.jobs),
                          len(self.jobs) + 1, failures)

    def final_checks(self) -> tuple[int, list[str]]:
        return 0, []

    def report(self) -> dict:
        return {"tree_sha256": self.tree_digest}


@dataclass
class _FitCase:
    label: str
    model: object
    scan: object
    rate: float
    accidental: float
    seed: int
    fitter: object             # dataset -> FitResult
    truth: float | None = None  # true visibility, when the fit estimates it


def _fringe_fitter(detunings, **options):
    # Looks fit.fit_fringe up at call time, so a traced pass sees the call.
    return lambda data: fit.fit_fringe(data, detunings, sigma=None, **options)


def _envelope_fitter(data):
    return fit.fit_envelope(data)


class CalibrationMC:
    """Monte Carlo calibration: fresh simulate-and-fit cases per seed.

    Per derived seed: the acceptance-06 single-pair fine scan (true
    V = 0.7862, no accidentals), an acceptance-03 fit_detuning scan, a
    161-point 2-5 multiplexed scan and a coarse 0-2.4 ns envelope scan;
    plus one reconstruct per pass.  One operation is one simulate+fit.
    """

    name = "calibration_mc"
    unit = "fits"
    op = "fit"
    SEEDS_PER_PASS = 8
    FINE_TRUTH = 0.7862

    def __init__(self, root: str, seed: int, out_dir: str):
        cfg = self.cfg = config.load_config(None)
        env, tau0, phi = _stock_geometry(cfg)
        self.seeds = derived_seeds(seed, self.SEEDS_PER_PASS)
        fine = counting.ScanConfig(-2e-12, 2e-12, 0.1e-12, 60.0)
        half = cfg.multi_span / 2.0
        multi = counting.ScanConfig(tau0 - half, tau0 + half, cfg.fine_step,
                                    cfg.dwell_multi)
        coarse = counting.ScanConfig(0.0, cfg.span, cfg.coarse_step,
                                     cfg.dwell_single)
        d2 = _detuning(cfg, 2)
        d_multi = [_detuning(cfg, k) for k in (2, 3, 4, 5)]
        self.cases: list[_FitCase] = []
        for i, s in enumerate(self.seeds):
            m = (5, 10, 15)[i % 3]
            dm = _detuning(cfg, m)
            self.cases += [
                _FitCase("fine", hom.FringeModel(((d2, self.FINE_TRUTH, 0.0),),
                                                 0.0, 0.0, env),
                         fine, 13.33, 0.0, s, _fringe_fitter([d2]),
                         self.FINE_TRUTH),
                _FitCase(f"detuning_{m}",
                         hom.FringeModel(((dm, 0.84, 0.0),), 0.0, 0.0, env),
                         fine, 67.0, 0.0, s,
                         _fringe_fitter([dm], fit_detuning=True), 0.84),
                _FitCase("multi_2-5",
                         hom.FringeModel(tuple((d, cfg.visibility, phi) for d in d_multi),
                                         tau0, 0.0, env),
                         multi, cfg.pair_rate * 4, _accidental(cfg, 4), s,
                         _fringe_fitter(d_multi)),
                _FitCase("envelope",
                         hom.FringeModel(((d2, cfg.visibility, phi),), tau0, 0.0, env),
                         coarse, cfg.pair_rate, _accidental(cfg, 1), s,
                         _envelope_fitter),
            ]
        self.reference: list | None = None
        self.covered = 0
        self.coverage_fits = 0

    def _fit(self, case: _FitCase):
        data = counting.simulate_fringe(case.model, case.scan, self.cfg.detector,
                                        case.rate, case.seed,
                                        accidental=case.accidental)
        return case.fitter(data)

    def _check(self, case: _FitCase, res) -> list[str]:
        problems = []
        if not (_finite(res.params.values()) and _finite(res.sigmas.values())):
            problems.append("non-finite estimate")
        if "detuning" in res.free_names:
            expected = 1.0 / case.model.pairs[0][0]
            period = 1.0 / res.params["detuning"]
            if not abs(period - expected) <= PERIOD_REL_TOL * expected:
                problems.append(f"period {period!r} s vs {expected!r} s")
        return problems

    def run_pass(self, tracer=None) -> PassResult:
        clock, ops, results, failures = _Clock(), [], [], []
        for case in self.cases:
            before = clock.elapsed
            try:
                with clock.segment():
                    results.append(self._fit(case))
            except Exception:
                results.append(None)
                failures.append(_failure(case.label))
            ops.append(clock.elapsed - before)
        t = self.cfg.tomography
        try:
            with clock.segment():
                recon = fit.reconstruct(t.balance, t.sigma_balance, t.visibility,
                                        t.sigma_visibility, t.phase, t.sigma_phase,
                                        theta_target=t.theta_target,
                                        samples=t.samples, seed=self.seeds[0])
        except Exception:
            recon = None
            failures.append(_failure("reconstruct"))

        if recon is not None and not (
                math.isfinite(recon.sigma_fidelity)
                and abs(recon.fidelity - FIDELITY) <= FIDELITY_TOL):
            failures.append(f"reconstruct: fidelity {recon.fidelity!r} "
                            f"+/- {recon.sigma_fidelity!r}")
        estimates = []
        for case, res in zip(self.cases, results):
            if res is None:
                estimates.append(None)
                continue
            estimates.append(tuple(res.params.values()))
            problems = self._check(case, res)
            if problems:
                failures.append(f"{case.label} seed {case.seed}: {'; '.join(problems)}")
        if self.reference is None:
            self.reference = estimates
            fits = [(c, r) for c, r in zip(self.cases, results)
                    if c.truth is not None and r is not None]
            self.coverage_fits = len(fits)
            self.covered = sum(abs(r.visibility - c.truth) <= 3.0 * r.sigmas["visibility"]
                               for c, r in fits)
        elif estimates != self.reference:
            failures.append("estimates differ from the first pass")
        return PassResult(clock.elapsed, ops, clock.refs, len(self.cases),
                          len(self.cases) + 1, failures)

    def final_checks(self) -> tuple[int, list[str]]:
        return 0, []

    def report(self) -> dict:
        return {"seeds": self.seeds,
                "coverage_3sigma": self.covered / max(self.coverage_fits, 1),
                "coverage_fits": self.coverage_fits}


@dataclass
class _Grid:
    scan: object
    seed: int
    path: str
    reference: np.ndarray | None = None


class DenseScan:
    """simulate_fringe over 2-15 grids of 2e5 points, to_csv, load_dataset.

    Two dwell times put the Poisson means near 27 and near 4,100, on both
    sides of the lambda = 30 branch of CounterRng.poisson.  One operation
    is one grid's simulate, write and read; a point counts once it has
    been read back.  No fits run here.
    """

    name = "dense_scan"
    unit = "points"
    op = "roundtrip"
    HALF_SPAN = 10e-9           # 200,001 points at the stock 0.1 ps step
    LOW_DWELL = 0.2             # mean ~27 counts per point

    def __init__(self, root: str, seed: int, out_dir: str):
        cfg = self.cfg = config.load_config(None)
        env, tau0, phi = _stock_geometry(cfg)
        indices = range(2, 16)
        self.model = hom.FringeModel(
            tuple((_detuning(cfg, m), cfg.visibility, phi) for m in indices),
            tau0, 0.0, env)
        self.rate = cfg.pair_rate * len(indices)
        self.accidental = _accidental(cfg, len(indices))
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.grids = [
            _Grid(counting.ScanConfig(tau0 - self.HALF_SPAN, tau0 + self.HALF_SPAN,
                                      cfg.fine_step, dwell),
                  s, os.path.join(out_dir, f"grid{i}.csv"))
            for i, (dwell, s) in enumerate(zip((self.LOW_DWELL, cfg.dwell_multi),
                                               derived_seeds(seed, 2)))
        ]
        self.known_defect: dict = {}

    def _simulate(self, grid: _Grid, workers: int = 1):
        return counting.simulate_fringe(self.model, grid.scan, self.cfg.detector,
                                        self.rate, grid.seed,
                                        accidental=self.accidental, workers=workers)

    def run_pass(self, tracer=None) -> PassResult:
        clock, ops, pairs, failures = _Clock(), [], [], []
        for grid in self.grids:
            before = clock.elapsed
            try:
                with clock.segment():
                    data = self._simulate(grid)
                with clock.segment():
                    data.to_csv(grid.path)
                with clock.segment():
                    back = counting.load_dataset(grid.path)
                pairs.append((grid, data, back))
            except Exception:
                failures.append(_failure(grid.path))
            ops.append(clock.elapsed - before)

        mismatched = 0
        for grid, data, back in pairs:
            problems = roundtrip_problems(data, back)
            mismatched += int(np.count_nonzero(back.taus != data.taus))
            if grid.reference is None:
                grid.reference = data.counts
            elif not np.array_equal(data.counts, grid.reference):
                problems.append("counts differ from the first pass")
            if problems:
                failures.append(f"{os.path.basename(grid.path)}: {'; '.join(problems)}")
        points = sum(len(data) for _, data, _ in pairs)
        return PassResult(clock.elapsed, ops, clock.refs, points, len(self.grids),
                          failures, {"counting.roundtrip_tau_mismatch": mismatched})

    def final_checks(self) -> tuple[int, list[str]]:
        """workers=2 against workers=1, and the stock fig3 2-5 round trip."""
        failures = []
        for grid in self.grids:
            try:
                two = self._simulate(grid, workers=2)
                if grid.reference is None or not np.array_equal(two.counts, grid.reference):
                    failures.append(f"{os.path.basename(grid.path)}: workers=2 counts differ")
            except Exception:
                failures.append(_failure(f"{grid.path} workers=2"))
        try:
            failures += self._stock_roundtrip()
        except Exception:
            failures.append(_failure("stock fig3 2-5 round trip"))
        return len(self.grids) + 1, failures

    def _stock_roundtrip(self) -> list[str]:
        """Known defect: to_csv/load_dataset moves some stock 2-5 delays by 1 ulp."""
        cfg = self.cfg
        env, tau0, phi = _stock_geometry(cfg)
        indices = (2, 3, 4, 5)
        model = hom.FringeModel(
            tuple((_detuning(cfg, m), cfg.visibility, phi) for m in indices),
            tau0, 0.0, env)
        half = cfg.multi_span / 2.0
        scan = counting.ScanConfig(tau0 - half, tau0 + half, cfg.fine_step,
                                   cfg.dwell_multi)
        data = counting.simulate_fringe(model, scan, cfg.detector,
                                        cfg.pair_rate * len(indices), cfg.seed,
                                        accidental=_accidental(cfg, len(indices)))
        path = os.path.join(self.out_dir, "stock_fig3_2-5.csv")
        data.to_csv(path)
        back = counting.load_dataset(path)
        self.known_defect = {
            "scan": "stock fig3 2-5",
            "points": len(data),
            "roundtrip_tau_mismatch": int(np.count_nonzero(back.taus != data.taus)),
        }
        return [f"stock fig3 2-5: {p}" for p in roundtrip_problems(data, back)]

    def report(self) -> dict:
        return {"grid_points": [len(g.scan.grid()) for g in self.grids],
                "known_defect": self.known_defect}


def roundtrip_problems(data, back) -> list[str]:
    """Counts must survive a CSV round trip exactly, delays within 1 ulp."""
    problems = []
    if not np.array_equal(back.counts, data.counts):
        problems.append("counts changed in the round trip")
    if back.taus.shape != data.taus.shape or np.any(
            np.abs(back.taus - data.taus) > np.spacing(np.abs(data.taus))):
        problems.append("delays moved by more than 1 ulp in the round trip")
    return problems


WORKLOADS = {w.name: w for w in (Figures, CalibrationMC, DenseScan)}
