"""Fringe fitting, envelope fitting, balance, and state reconstruction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import freqbin.fit
from freqbin import scenarios
from freqbin.comb import pair_for_index
from freqbin.config import load_config
from freqbin.counting import FringeDataset, ScanConfig, accidental_rate, simulate_fringe
from freqbin.errors import DomainError, FitError, NonPhysicalStateError, ReconstructionError
from freqbin.fit import (
    _X_HALF,
    _envelope_start,
    _FringeDesign,
    _polish,
    estimate_balance,
    fit_envelope,
    fit_fringe,
    reconstruct,
)
from freqbin.hom import Envelope, FringeModel, envelope_terms, hom_multi, revival_period

from conftest import exact_dataset

MODEL = load_config().resonator
DET2 = float(pair_for_index(MODEL, 2).detuning)
DET3 = float(pair_for_index(MODEL, 3).detuning)
DET5 = float(pair_for_index(MODEL, 5).detuning)
DETS_2_5 = [float(pair_for_index(MODEL, m).detuning) for m in range(2, 6)]
DETS_2_15 = [float(pair_for_index(MODEL, m).detuning) for m in range(2, 16)]
ENV = Envelope.from_fwhm(MODEL.fwhm)

FINE_TAUS = np.arange(-2e-12, 2.0001e-12, 0.05e-12)
# A multiplexed window: +/- 8 ps spans two beat periods of adjacent pairs (10.1 ps).
MULTI_TAUS = np.arange(-8e-12, 8.0001e-12, 0.05e-12)


def _cosine_probability(taus, detunings, visibility, phi, tau0):
    t = np.asarray(taus) - tau0
    beat = np.zeros_like(t)
    for d in detunings:
        beat += np.cos(2.0 * math.pi * d * t + phi)
    return 0.5 * (1.0 - visibility * beat / len(detunings))


def _poisson_scan(visibility, phi, seed, detector):
    scan = ScanConfig(-2e-12, 2e-12, 0.1e-12, 60.0)
    model = FringeModel(((DET2, visibility, phi),), 0.0, 0.0, ENV)
    return simulate_fringe(model, scan, detector, pair_rate=13.33, seed=seed)


class TestFringeNoiseless:
    def test_single_pair_recovers_parameters(self):
        p = _cosine_probability(FINE_TAUS, [DET2], 0.8, 1.0, 0.0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
        res = fit_fringe(ds, [DET2], sigma=None)
        assert abs(res.params["visibility"] - 0.8) < 1e-6
        assert abs(res.params["phi"] - 1.0) < 1e-6

    def test_single_pair_reports_phase_gauge(self):
        p = _cosine_probability(FINE_TAUS, [DET2], 0.8, 1.0, 0.0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
        res = fit_fringe(ds, [DET2], sigma=None)
        assert "phase-gauge" in res.flags
        assert res.params["tau0"] == 0.0
        assert res.sigmas["tau0"] == 0.0

    def test_gauge_phase_is_zero_delay_beat_phase(self):
        # data generated at tau0 != 0 reports phi - 2 pi dnu tau0 instead
        tau0 = 0.21e-12
        p = _cosine_probability(FINE_TAUS, [DET2], 0.8, 0.4, tau0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
        res = fit_fringe(ds, [DET2], sigma=None)
        expected = 0.4 - 2.0 * math.pi * DET2 * tau0
        expected = (expected + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(res.params["phi"] - expected) < 1e-6
        assert res.params["tau0"] == 0.0

    def test_two_pairs_break_the_gauge(self):
        tau0 = 0.37e-12
        p = _cosine_probability(MULTI_TAUS, [DET2, DET3], 0.8, 1.0, tau0)
        ds = exact_dataset(MULTI_TAUS, p, 1e9)
        res = fit_fringe(ds, [DET2, DET3], sigma=None)
        assert "phase-gauge" not in res.flags
        assert abs(res.params["visibility"] - 0.8) < 1e-6
        assert abs(res.params["phi"] - 1.0) < 1e-6
        assert abs(res.params["tau0"] - tau0) < 1e-18

    def test_fit_detuning_recovers_true_detuning(self):
        p = _cosine_probability(FINE_TAUS, [DET2], 0.8, 1.0, 0.0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
        res = fit_fringe(ds, [DET2 * 1.001], sigma=None, fit_detuning=True)
        assert abs(res.params["detuning"] - DET2) / DET2 < 1e-6
        assert abs(res.params["visibility"] - 0.8) < 1e-6

    def test_visibility_property_accessors(self):
        p = _cosine_probability(FINE_TAUS, [DET2], 0.8, 1.0, 0.0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
        res = fit_fringe(ds, [DET2], sigma=None)
        assert res.visibility == res.params["visibility"]
        assert res.phi == res.params["phi"]
        assert res.tau0 == res.params["tau0"]

    def test_revival_alias_resolves_to_smallest_offset(self):
        # Without the envelope the 2-5 model repeats every revival period.
        tau0 = 3.0 * revival_period(MODEL.fsr) + 0.37e-12
        p = _cosine_probability(MULTI_TAUS, DETS_2_5, 0.8, 1.0, tau0)
        ds = exact_dataset(MULTI_TAUS, p, 1e9)
        res = fit_fringe(ds, DETS_2_5, sigma=None)
        assert abs(res.params["tau0"] - 0.37e-12) < 1e-18
        assert abs(res.params["visibility"] - 0.8) < 1e-6


def test_multiplexed_fit_call_budget(monkeypatch, detector):
    model = FringeModel(tuple((d, 0.8, 0.3) for d in DETS_2_5), 0.0, 0.0, ENV)
    scan = ScanConfig(-8e-12, 8e-12, 0.1e-12, 30.0)
    ds = simulate_fringe(model, scan, detector, pair_rate=53.32, seed=11)
    calls = []
    solve = freqbin.fit.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(freqbin.fit, "least_squares", counted)
    fit_fringe(ds, DETS_2_5, sigma=None)
    assert len(calls) <= 2


def _scipy_callbacks(design):
    """(residual, jacobian) functions of theta, as scipy's least_squares takes them."""
    return (lambda x: design.evaluate(x)[0]), (lambda x: design.evaluate(x)[1]())


def _grid_search_residual_ss(data, detunings, fit_detuning=False):
    """Residual of the former search, kept as the reference optimum.

    32 Levenberg-Marquardt starts (four phases times eight delay offsets
    over one period of the slowest beat), each converged start polished
    at 1e-14 tolerance; the lowest residual is returned.  A single-pair
    design has no tau0 (it is fixed at 0), so there a start's delay offset
    enters as the beat phase it shifts.
    """
    order = np.argsort(data.taus)
    taus_ps = data.taus[order] * 1e12
    counts = data.counts[order].astype(np.float64)
    d_ps = [d * 1e-12 for d in detunings]
    design = _FringeDesign(taus_ps, counts, d_ps, fit_detuning=fit_detuning)
    residual, jacobian = _scipy_callbacks(design)
    n0 = 2.0 * counts.mean()
    v0 = float(np.clip(np.ptp(counts) / max(counts.mean(), 1.0) / 2.0, 0.05, 0.9))
    period_ps = 1.0 / min(d_ps)
    best = math.inf
    for phi0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        for j in range(8):
            t0 = j * period_ps / 8.0
            x0 = ([n0, v0, phi0 - 2.0 * math.pi * d_ps[0] * t0] if design.gauge
                  else [n0, v0, phi0, t0])
            if fit_detuning:
                x0.append(d_ps[0])
            r = least_squares(residual, np.array(x0), jac=jacobian,
                              method="lm", xtol=1e-9, ftol=1e-9, gtol=1e-9,
                              max_nfev=200)
            if r.status > 0:
                x = least_squares(residual, r.x, jac=jacobian,
                                  method="lm", xtol=1e-14, ftol=1e-14,
                                  gtol=1e-14, max_nfev=400).x
                best = min(best, float(np.sum(residual(x) ** 2)))
    return best


def _direct_profile(design, t0s):
    """The former profile, kept as the reference: one weighted solve per offset.

    At each offset the N x 3 basis sqrt(w) [1, C, S] is built from the cos
    and sin of every pair at every delay and solved by pinv; the cost is
    the sum of the squared residuals.
    """
    y = design.sw * design.c
    costs, coefs = [], []
    for t0 in t0s:
        dt = design.t - t0
        cos_sum = sum(np.cos(2.0 * math.pi * d * dt) for d in design.d)
        sin_sum = sum(np.sin(2.0 * math.pi * d * dt) for d in design.d)
        scale = design.sw / len(design.d)
        basis = np.column_stack([design.sw, cos_sum * scale, sin_sum * scale])
        beta = np.linalg.pinv(basis.T @ basis) @ (basis.T @ y)
        costs.append(float(np.sum((y - basis @ beta) ** 2)))
        coefs.append(beta)
    return np.array(costs), np.array(coefs)


def _reference_case(name, detector):
    if name == "single":
        return _poisson_scan(0.7862, 0.4, 5, detector), [DET2], {}
    if name == "fit_detuning":
        model = FringeModel(((DET3, 0.84, 0.0),), 0.0, 0.0, ENV)
        scan = ScanConfig(-2e-12, 2e-12, 0.1e-12, 60.0)
        ds = simulate_fringe(model, scan, detector, pair_rate=67.0, seed=6)
        return ds, [DET3 * 1.0005], {"fit_detuning": True}
    dets = DETS_2_5 if name == "2-5" else DETS_2_15
    model = FringeModel(tuple((d, 0.8, -0.7) for d in dets), 1.3e-12, 0.0, ENV)
    scan = ScanConfig(-8e-12, 8e-12, 0.1e-12, 30.0)
    ds = simulate_fringe(model, scan, detector, pair_rate=13.33 * len(dets),
                         seed=9)
    return ds, dets, {}


@pytest.mark.parametrize("name", ["single", "fit_detuning", "2-5", "2-15"])
def test_profile_search_matches_multistart_grid(name, detector):
    ds, dets, options = _reference_case(name, detector)
    res = fit_fringe(ds, dets, **options)
    assert res.residual_ss <= _grid_search_residual_ss(ds, dets, **options) * (1.0 + 1e-9)


@pytest.mark.parametrize("name", ["2-5", "2-15", "exact-2-5"])
def test_profile_matches_direct_solve(name, detector):
    # The start's linear coefficients are what the N x 3 basis at its offset
    # solves; on exact data the closed-form offset is the truth.
    tau0 = 3.0 * revival_period(MODEL.fsr) + 0.37e-12
    if name == "exact-2-5":
        p = _cosine_probability(MULTI_TAUS, DETS_2_5, 0.8, 1.0, tau0)
        ds, dets = exact_dataset(MULTI_TAUS, p, 1e9), DETS_2_5
    else:
        ds, dets, _ = _reference_case(name, detector)
    design = _FringeDesign(ds.taus * 1e12, ds.counts.astype(np.float64),
                           [d * 1e-12 for d in dets])
    n, v, phi, t0 = design.start()
    coef = [n / 2.0, -n / 2.0 * v * math.cos(phi), n / 2.0 * v * math.sin(phi)]
    _, ref = _direct_profile(design, [t0])
    np.testing.assert_allclose(coef, ref[0], rtol=1e-9, atol=0.0)
    if name == "exact-2-5":
        assert t0 == pytest.approx(0.37, abs=1e-6)


def test_closed_start_finds_an_offset_beyond_the_former_grid(detector):
    # Pairs 5-15 with tau0 2.4 ps off the centre of a 16 ps window: the former
    # grid spanned +/- 1/d_5 = +/- 1.01 ps of the 5.05 ps period and ended in a
    # wrong minimum.  The reference polishes from the best point of a dense
    # profile over one full period 1/delta.
    dets = [float(pair_for_index(MODEL, m).detuning) for m in range(5, 16)]
    model = FringeModel(tuple((d, 0.8, 0.7) for d in dets), 2.4e-12, 0.0, ENV)
    scan = ScanConfig(-8e-12, 8e-12, 0.1e-12, 30.0)
    period_ps = 1e12 / (DET3 - DET2)
    t0s = np.linspace(-period_ps / 2.0, period_ps / 2.0, 1024, endpoint=False)
    for seed in (1, 2, 3):
        ds = simulate_fringe(model, scan, detector, pair_rate=13.33 * len(dets), seed=seed)
        res = fit_fringe(ds, dets)
        design = _FringeDesign(ds.taus * 1e12, ds.counts.astype(np.float64),
                               [d * 1e-12 for d in dets])
        costs, _ = _direct_profile(design, t0s)
        ref = _polish(design, design.start(t0s[int(np.argmin(costs))]), "reference")[0]
        assert res.residual_ss <= 2.0 * ref.cost * (1.0 + 1e-9)
        assert abs(res.tau0 - 2.4e-12) <= 3.0 * res.sigmas["tau0"]


@pytest.mark.parametrize("shift", [0.0, 0.3], ids=["harmonic", "shifted"])
def test_multiplexed_tau0_is_wrapped_into_one_period(shift):
    # The flat model of pairs spaced by delta is unchanged by t0 -> t0 - k/delta
    # with phi -> phi - 2 pi k d_min/delta (0 mod 2 pi for the harmonic comb
    # 2-5, not for one shifted by 0.3 delta).  A polish started k periods out
    # stays there; its canonical t0 lies in (-1/(2 delta), 1/(2 delta)].
    delta = (DET3 - DET2) * 1e-12
    d_ps = [d * 1e-12 + shift * delta for d in DETS_2_5]
    taus_ps = MULTI_TAUS * 1e12
    for periods in (0.6, -0.6, 1.7, -1.7):
        t0 = periods / delta
        counts = np.random.default_rng(3).poisson(
            2000.0 * _cosine_probability(taus_ps, d_ps, 0.8, 1.0, t0))
        design = _FringeDesign(taus_ps, counts, d_ps)
        res, theta, _, _ = _polish(design, np.array([2000.0, 0.8, 1.0, t0]), "fringe fit")
        assert abs(res.x[3] * delta - periods) < 0.1
        assert -0.5 < theta[3] * delta <= 0.5
        assert theta[3] * delta - res.x[3] * delta == pytest.approx(-round(periods), abs=1e-9)
        residual = design.evaluate(theta)[0]
        assert 0.5 * float(residual @ residual) == pytest.approx(res.cost, rel=1e-12, abs=0.0)
        if shift == 0.0:
            assert math.remainder(theta[2] - res.x[2], 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_multiplexed_tau0_near_the_period_edge_is_wrapped():
    # Pairs 5-15 with tau0 2.4 ps, near the 2.524 ps half period, over +/- 1.2
    # revival periods at the stock step, rates and accidentals: the polish
    # ends at -2.675 ps, one period from the canonical +2.374 ps.
    cfg = load_config()
    pairs = range(5, 16)
    dets = [float(pair_for_index(cfg.resonator, m).detuning) for m in pairs]
    model = FringeModel(tuple((d, cfg.visibility, 0.7) for d in dets), 2.4e-12, 0.0, ENV)
    period = revival_period(cfg.resonator.fsr)
    accidental = accidental_rate(cfg.singles_signal * len(dets), cfg.singles_idler * len(dets),
                                 cfg.detector.coincidence_window)
    ds = simulate_fringe(model, ScanConfig(-1.2 * period, 1.2 * period, cfg.fine_step, 0.3),
                         cfg.detector, cfg.pair_rate * len(dets), 16, accidental=accidental)
    res = fit_fringe(ds, dets)
    assert -period / 2.0 < res.tau0 <= period / 2.0
    assert res.tau0 == pytest.approx(2.3735e-12, abs=1e-16)
    assert abs(res.tau0 - 2.4e-12) <= 3.0 * res.sigmas["tau0"]
    assert res.phi == pytest.approx(0.4548, abs=1e-4)
    assert res.residual_ss == pytest.approx(132.4008388, rel=1e-9)


class TestFringePoisson:
    def test_visibility_within_three_sigma(self, detector):
        ds = _poisson_scan(0.7862, 0.0, 42, detector)
        res = fit_fringe(ds, [DET2], sigma=None)
        pull = (res.params["visibility"] - 0.7862) / res.sigmas["visibility"]
        assert abs(pull) < 3.0
        assert 0.005 < res.sigmas["visibility"] < 0.05

    def test_zero_visibility_estimate_consistent_with_zero(self, detector):
        ds = _poisson_scan(0.0, 0.0, 2, detector)
        res = fit_fringe(ds, [DET2], sigma=None)
        assert res.params["visibility"] <= 2.0 * res.sigmas["visibility"]

    def test_fit_is_deterministic(self, detector):
        ds = _poisson_scan(0.7862, 0.0, 7, detector)
        a = fit_fringe(ds, [DET2], sigma=None)
        b = fit_fringe(ds, [DET2], sigma=None)
        assert a.params == b.params
        assert a.sigmas == b.sigmas
        assert a.flags == b.flags

    def test_constant_counts_are_a_fit_error(self):
        ds = FringeDataset(MULTI_TAUS, np.full(MULTI_TAUS.size, 500, dtype=np.int64), 1.0)
        for dets, options in (([DET2], {}), ([DET2], {"fit_detuning": True}),
                              ([DET2, DET3], {})):
            with pytest.raises(FitError, match="constant counts"):
                fit_fringe(ds, dets, sigma=None, **options)

    def test_report_lists_parameters_and_flags(self, detector):
        ds = _poisson_scan(0.7862, 0.0, 42, detector)
        res = fit_fringe(ds, [DET2], sigma=None)
        text = res.report()
        assert "visibility = " in text
        assert "+/-" in text
        assert "flags = phase-gauge" in text
        assert "tau0 = 0.0 (fixed)" in text
        assert "# covariance order: scale,visibility,phi\n" in text


class TestEnvelopeFit:
    def test_exact_data_recovers_linewidth(self):
        taus = np.arange(0.0, 2.4e-9 + 1e-15, 2e-12)
        model = FringeModel(((DET2, 0.84, 0.0),), 0.3e-9, 0.0, ENV)
        ds = exact_dataset(taus, hom_multi(model, taus), 1e7)
        res = fit_envelope(ds, detunings=[DET2])
        fwhm = float(MODEL.fwhm)
        assert abs(res.params["fwhm"] - fwhm) / fwhm < 0.01

    def test_poisson_data_median_error_small(self, detector):
        scan = ScanConfig(0.0, 2.4e-9, 2e-12, 1.0)
        model = FringeModel(((DET2, 0.84, 0.0),), 0.3e-9, 0.0, ENV)
        fwhm = float(MODEL.fwhm)
        errors = []
        for seed in range(15):
            ds = simulate_fringe(model, scan, detector, pair_rate=800.0, seed=seed)
            res = fit_envelope(ds, detunings=[DET2])
            errors.append(abs(res.params["fwhm"] - fwhm) / fwhm)
        assert np.median(errors) < 0.15

    def test_flat_data_flagged(self):
        taus = np.arange(0.0, 2.4e-9 + 1e-15, 2e-12)
        ds = FringeDataset(taus, np.full(taus.size, 500, dtype=np.int64), 1.0)
        with pytest.raises(FitError, match="constant counts"):
            fit_envelope(ds, detunings=[DET2])

    def test_diverging_linewidth_is_a_fit_error(self):
        # exp(u) overflows past u ~ 709.8; the polish reports a failed fit.
        taus_ps = np.arange(0.0, 2400.0, 2.0)
        counts = np.full(taus_ps.size, 100.0)
        design = _FringeDesign(taus_ps, counts, [DET2 * 1e-12], fit_sigma=True)
        with pytest.raises(FitError):
            _polish(design, np.array([200.0, 0.5, 0.0, 0.0, 710.0]), "envelope fit")

    def test_short_scan_rejected(self):
        taus = np.arange(0.0, 0.5e-9, 2e-12)
        ds = FringeDataset(taus, np.full(taus.size, 500, dtype=np.int64), 1.0)
        with pytest.raises(DomainError):
            fit_envelope(ds, detunings=[DET2])


def _coarse_scan(name, seed, detector, step=2e-12):
    """Poisson 0-2.4 ns coarse scan of the stock fig2 source or a variant."""
    rate, tau0, fwhm = 67.0, 0.3e-9, float(MODEL.fwhm)
    if name == "low-rate":
        rate /= 10.0
    elif name == "11-counts":  # about 11 counts per point
        rate /= 100.0
    elif name.startswith("tau0-"):
        tau0 = {"tau0-0": 0.0, "tau0-1.5ns": 1.5e-9, "tau0-2.4ns": 2.4e-9}[name]
    elif name == "fwhm-400MHz":
        fwhm = 400e6
    model = FringeModel(((DET2, 0.84, 0.0),), tau0, 0.0, Envelope.from_fwhm(fwhm))
    scan = ScanConfig(0.0, 2.4e-9, step, 60.0)
    return simulate_fringe(model, scan, detector, rate, seed,
                           accidental=accidental_rate(1e4, 1e4, 1e-9))


def _multistart_envelope(data, detunings):
    """The former envelope search, kept as the reference optimum.

    Stage one: 16 finite-difference Levenberg-Marquardt starts of the
    folded model |counts - mean| ~ sqrt((2A/pi)^2 E^2 + 2 b/pi) in
    theta = (A, t0, log sigma_ps) (four delay offsets times four
    linewidths), the lowest cost kept.  Stage two: one linear solve and
    one polish of the full model from there.  Returns (residual_ss, params).
    """
    order = np.argsort(data.taus)
    taus_ps = data.taus[order] * 1e12
    counts = data.counts[order].astype(np.float64)
    span_ps = float(taus_ps[-1] - taus_ps[0])
    baseline = counts.mean()
    dev = np.abs(counts - baseline)

    def folded(theta):
        x = np.minimum(np.abs(math.exp(theta[2]) * (taus_ps - theta[1])), 700.0)
        env = (1.0 + x) * np.exp(-x)
        return dev - np.sqrt((2.0 / math.pi * theta[0] * env) ** 2
                             + 2.0 * baseline / math.pi)

    best = None
    for t0_frac in (0.0, 0.25, 0.5, 0.75):
        for mult in (0.5, 1.0, 2.0, 4.0):
            x0 = [max(dev.max(), 1.0), taus_ps[0] + t0_frac * span_ps,
                  math.log(2.0 / span_ps * mult)]
            try:
                r = least_squares(folded, x0=np.asarray(x0), method="lm",
                                  xtol=1e-10, ftol=1e-10, gtol=1e-10, max_nfev=8000)
            except (ValueError, OverflowError):
                continue
            if best is None or r.cost < best.cost:
                best = r
    _, t01, u1 = best.x
    full = _FringeDesign(taus_ps, counts, [d * 1e-12 for d in detunings], fit_sigma=True)
    res, (n, v, phi, t0, u), _, _ = _polish(full, full.start(t01, math.exp(u1)), "reference")
    params = {"scale": n, "visibility": v, "phi": phi, "tau0": t0 * 1e-12,
              "fwhm": math.exp(u) / (2.0 * math.pi) * 1e12}
    return 2.0 * res.cost, params


COARSE_CASES = ["stock", "low-rate", "tau0-1.5ns", "fwhm-400MHz"]


@pytest.mark.parametrize("name", COARSE_CASES)
def test_envelope_profile_matches_multistart_grid(name, detector):
    for seed in (1, 2, 3):
        ds = _coarse_scan(name, seed, detector)
        full_ref, ref = _multistart_envelope(ds, [DET2])
        full = fit_envelope(ds, detunings=[DET2])
        assert full.residual_ss <= full_ref * (1.0 + 1e-9)
        for key, value in ref.items():
            delta = full.params[key] - value
            if key == "phi":
                delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(delta) <= 1e-3 * full.sigmas[key], key


def _full_grid_start(taus_ps, counts):
    """A grid-search start, kept as the reference for the closed form.

    Scores a grid of 33 delay offsets spanning the scan times 9 log-spaced
    linewidths in (1/4 .. 8) 2/span against every delay: |counts - mean|
    is compared with sqrt(k E^2 + 2 b/pi), the folded-normal mean of beat
    plus Poisson noise around the baseline b, with k = sum E^2 q / sum E^4
    clipped at 0 and q = |counts - b|^2 - 2 b/pi.  Returns the best grid
    point's (t0, sigma_ps), as `_envelope_start` does.
    """
    baseline = counts.mean()
    dev = np.abs(counts - baseline)
    floor2 = 2.0 * baseline / math.pi
    span_ps = float(taus_ps[-1] - taus_ps[0])
    t0g, ug = (g.ravel() for g in np.meshgrid(
        np.linspace(taus_ps[0], taus_ps[-1], 33),
        np.log(2.0 / span_ps * np.logspace(-2.0, 3.0, 9, base=2.0)), indexing="ij"))
    e2 = envelope_terms(np.exp(ug[:, None]), taus_ps - t0g[:, None])[2] ** 2
    k = np.maximum(e2 @ (dev**2 - floor2) / np.sum(e2**2, axis=1), 0.0)
    i = np.argmin(np.sum((dev - np.sqrt(k[:, None] * e2 + floor2)) ** 2, axis=1))
    return float(t0g[i]), math.exp(ug[i])


def _stock_coarse(seed):
    """fig2's coarse scan (1,201 delays over 0-2.4 ns) at the stock config."""
    cfg = load_config()
    model = scenarios._fringe_model(cfg, [2], cfg.theta + cfg.phi_instr)
    return scenarios._sim(cfg, model, cfg.delay_scan("coarse"), seed)


def _fit_from_both_starts(ds, monkeypatch):
    """fit_envelope from the closed start and from the reference grid's best
    point; None where a fit raises FitError."""
    fits = []
    for start in (_envelope_start, _full_grid_start):
        monkeypatch.setattr(freqbin.fit, "_envelope_start", start)
        try:
            fits.append(fit_envelope(ds, detunings=[DET2]))
        except FitError:
            fits.append(None)
    return fits


def _same_optimum(res, ref):
    for key in ("fwhm", "tau0", "visibility"):
        assert abs(res.params[key] - ref.params[key]) <= 1e-3 * res.sigmas[key], key


@pytest.mark.parametrize("name", COARSE_CASES)
def test_closed_start_reaches_the_grid_start_optimum(name, detector, monkeypatch):
    for seed in range(20):
        res, ref = _fit_from_both_starts(_coarse_scan(name, seed, detector), monkeypatch)
        _same_optimum(res, ref)


def test_closed_start_fits_every_low_count_scan_the_grid_start_fits(detector, monkeypatch):
    # About 11 counts per point: some scans defeat both starts, none the closed one alone.
    fitted = 0
    for seed in range(40):
        res, ref = _fit_from_both_starts(_coarse_scan("11-counts", seed, detector), monkeypatch)
        if ref is not None:
            assert res is not None, seed
            _same_optimum(res, ref)
            fitted += 1
    assert fitted >= 30


@pytest.mark.filterwarnings("error")
def test_start_is_inside_the_scan_and_the_clamp(detector):
    def scans():
        for step in (0.34e-9, 0.2e-9, 0.17e-9):  # 8, 13 and 15 delays, fewer than the start bins
            for seed in range(5):
                ds = _coarse_scan("stock", seed, detector, step)
                assert 8 <= len(ds) < 16
                yield ds
        for name in ("tau0-0", "tau0-2.4ns"):  # the peak in the first and in the last bin
            for seed in range(5):
                yield _coarse_scan(name, seed, detector)
        for points in (8, 1201):  # no beat: the peak q can be <= 0
            taus = np.linspace(0.0, 2.4e-9, points)
            for seed in range(20):
                counts = np.random.default_rng(seed).poisson(500.0, points)
                yield FringeDataset(taus, counts, 60.0)

    half_span_starts = 0
    for ds in scans():
        taus_ps, counts = ds.taus * 1e12, ds.counts.astype(np.float64)
        span_ps = taus_ps[-1] - taus_ps[0]
        t0, sigma_ps = _envelope_start(taus_ps, counts)
        assert taus_ps[0] <= t0 <= taus_ps[-1]
        assert 0.5 / span_ps <= sigma_ps <= 16.0 / span_ps
        half_span_starts += sigma_ps == _X_HALF / (0.5 * span_ps)
        try:
            res = fit_envelope(ds, detunings=[DET2])
        except FitError:
            continue
        assert all(math.isfinite(v) for v in res.params.values())
    assert half_span_starts > 0


def _count_least_squares(monkeypatch):
    """Record the nfev of every freqbin.fit.least_squares call."""
    nfevs = []
    solve = freqbin.fit.least_squares

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        nfevs.append(res.nfev)
        return res

    monkeypatch.setattr(freqbin.fit, "least_squares", counted)
    return nfevs


def test_envelope_fit_call_budget(monkeypatch, detector):
    ds = _coarse_scan("stock", 4, detector)
    nfevs = _count_least_squares(monkeypatch)
    fit_envelope(ds, detunings=[DET2])
    assert len(nfevs) == 1
    nfevs.clear()
    with pytest.raises(DomainError, match="detunings"):
        fit_envelope(FringeDataset(ds.taus, ds.counts, ds.dwell))
    assert nfevs == []


def test_envelope_fit_takes_exactly_one_detuning(detector):
    # A coarse scan of pairs 2 and 3: with both detunings the polish ended
    # 30 sigma off the true linewidth, so any count but one is refused.
    model = FringeModel(((DET2, 0.84, 0.0), (DET3, 0.84, 0.0)), 0.3e-9, 0.0, ENV)
    ds = simulate_fringe(model, ScanConfig(0.0, 2.4e-9, 2e-12, 60.0), detector, 134.0, 1,
                         accidental=accidental_rate(2e4, 2e4, 1e-9))
    assert ds.metadata["detunings_hz"] == f"{DET2!r},{DET3!r}"
    for detunings in (None, [DET2, DET3], []):
        with pytest.raises(DomainError, match="exactly one detuning"):
            fit_envelope(ds, detunings=detunings)
    for detuning in (0.0, -DET2, math.nan, math.inf):
        with pytest.raises(DomainError, match="positive and finite"):
            fit_envelope(ds, detunings=[detuning])


def test_structureless_scans_end_quickly(monkeypatch):
    # Uniform-random counts hold no envelope: a fit either ends with finite
    # estimates or raises FitError, within the polish's evaluation cap.
    nfevs = _count_least_squares(monkeypatch)
    taus = np.linspace(0.0, 2.4e-9, 14)
    for seed in range(20):
        counts = np.random.default_rng(seed).integers(0, 1000, taus.size)
        nfevs.clear()
        try:
            res = fit_envelope(FringeDataset(taus, counts, 1.0), detunings=[DET2])
        except FitError:
            pass
        else:
            assert all(math.isfinite(v) for v in res.params.values())
            assert all(math.isfinite(v) for v in res.sigmas.values())
        assert sum(nfevs) <= 400


def test_polish_without_finite_start_is_a_fit_error():
    taus_ps = np.arange(-2.0, 2.05, 0.1)
    design = _FringeDesign(taus_ps, np.full(taus_ps.size, 100.0), [DET2 * 1e-12])
    with pytest.raises(FitError, match="fringe fit has no finite start"):
        _polish(design, np.array([math.nan, 0.5, 0.0]), "fringe fit")


def test_polish_with_a_wrong_length_start_is_a_value_error():
    # A start of 4 entries for a 3-parameter design is the caller's error.
    taus_ps = np.arange(-2.0, 2.05, 0.1)
    design = _FringeDesign(taus_ps, np.full(taus_ps.size, 100.0), [DET2 * 1e-12])
    with pytest.raises(ValueError, match="broadcast"):
        _polish(design, np.array([100.0, 0.5, 0.0, 0.0]), "fringe fit")


def test_polish_at_the_evaluation_cap_is_a_fit_error():
    # r = 1/x has its minimum at infinity: each step doubles x and promises
    # as large a relative decrease again, so only the cap ends the polish.
    design = SimpleNamespace(evaluate=lambda x: (1.0 / x, lambda: np.diag(-1.0 / x**2)))
    with pytest.raises(FitError, match="did not converge in 400 evaluations"):
        _polish(design, np.array([1.0]), "fit")


def _design_kind(kind):
    """(a maker of one fresh design, a theta) for each kind of fit design."""
    taus_ps = np.arange(0.0, 2400.0 + 1.0, 20.0) if kind == "sigma" else np.arange(-8.0, 8.05, 0.1)
    counts = np.random.default_rng(5).poisson(300.0, taus_ps.size).astype(np.float64)
    theta = [600.0, 0.6, 0.4]
    if kind == "4-pair":
        d_ps = [d * 1e-12 for d in DETS_2_5]
        theta.append(0.05)
    else:
        d_ps = [DET2 * 1e-12]
    if kind == "detuning":
        theta.append(d_ps[0] * 1.001)
    if kind == "sigma":
        theta += [300.0, math.log(2.0 * math.pi * float(MODEL.fwhm) * 1e-12)]
    options = {"fit_detuning": kind == "detuning", "fit_sigma": kind == "sigma"}
    return (lambda: _FringeDesign(taus_ps, counts, d_ps, **options)), np.array(theta)


def _fresh(make, theta):
    """(residual, Jacobian) of a fresh design at a copy of theta."""
    residual, jacobian = make().evaluate(theta.copy())
    return residual, jacobian()


@pytest.mark.parametrize("pair", ["moved", "signed-zero"])
@pytest.mark.parametrize("kind", ["flat", "detuning", "4-pair", "sigma"])
def test_design_evaluations_match_fresh_designs(kind, pair):
    # A design keeps nothing between evaluations: interleaved evaluations at
    # two thetas, their Jacobians built out of order, must equal those of a
    # fresh design, byte for byte.  "moved" changes only the last parameter;
    # "signed-zero" only the sign of V = 0, which flips the zeros of the phi
    # and tau0 columns.
    make, a = _design_kind(kind)
    b = a.copy()
    if pair == "moved":
        b[-1] *= 1.001
    else:
        a[1], b[1] = 0.0, -0.0
    assert _fresh(make, a)[1].tobytes() != _fresh(make, b)[1].tobytes()
    design = make()
    (ra, ja), (rb, jb) = design.evaluate(a), design.evaluate(b)
    ra2, ja2 = design.evaluate(a)
    for got, theta, which in ((ra, a, 0), (jb(), b, 1), (ja(), a, 1), (rb, b, 0),
                              (ja2(), a, 1), (ra2, a, 0)):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == _fresh(make, theta)[which].tobytes()
    assert ja().shape == (design.t.size, len(design.names))


def test_design_reevaluates_a_theta_mutated_in_place():
    # An evaluation is of theta's values at the call: a caller may edit theta
    # in place between calls, and an earlier Jacobian keeps the earlier values.
    make, theta = _design_kind("flat")
    design = make()
    before = theta.copy()
    _, jacobian_before = design.evaluate(theta)
    theta[2] -= 0.3
    residual, jacobian = design.evaluate(theta)
    assert jacobian().tobytes() == _fresh(make, theta)[1].tobytes()
    assert residual.tobytes() == _fresh(make, theta)[0].tobytes()
    assert jacobian_before().tobytes() == _fresh(make, before)[1].tobytes()


def test_design_keeps_nothing_of_an_evaluation_that_raises():
    # exp overflows on a runaway log linewidth; _polish makes that a FitError.
    make, theta = _design_kind("sigma")
    design = make()
    design.evaluate(theta)
    runaway = theta.copy()
    runaway[-1] = 710.0
    for _ in range(2):
        with pytest.raises(OverflowError):
            design.evaluate(runaway)
    after = theta.copy()
    after[0] *= 1.5
    for x in (after, theta):
        residual, jacobian = design.evaluate(x)
        fresh = _fresh(make, x)
        assert residual.tobytes() == fresh[0].tobytes()
        assert jacobian().tobytes() == fresh[1].tobytes()


def _reference_evaluate(design, theta):
    """(residual, Jacobian) of a design at theta, written as plain expressions.

    The reference for `_FringeDesign.evaluate`, whose bytes must equal these:
    beat means summed from zeros, the flat model's E = 1.0 and dE/dt0 = 0.0
    taken into every product, and each product in this operand order.
    """
    n, v, phi = theta[:3]
    dt = design.t - (0.0 if design.gauge else theta[3])
    dets = (theta[design.names.index("detuning")],) if design.fit_detuning else design.d
    if design.fit_sigma:
        sigma_ps = math.exp(theta[-1])
        x, ex, env = envelope_terms(sigma_ps, dt)
    else:
        env = 1.0
    cosb, sinb, sinb_d = np.zeros_like(dt), np.zeros_like(dt), np.zeros_like(dt)
    for d in dets:
        cosb += np.cos(2.0 * math.pi * d * dt + phi)
        s = np.sin(2.0 * math.pi * d * dt + phi)
        sinb += s
        sinb_d += s * d
    cosb /= len(dets)
    sinb /= len(dets)
    sinb_d /= len(dets)
    residual = design.sw * (design.c - n * (0.5 - 0.5 * v * cosb * env))
    g = cosb * env
    jac = np.empty((dt.size, len(design.names)))
    jac[:, 0] = -design.sw * (0.5 - 0.5 * v * g)
    jac[:, 1] = design.sw * n * 0.5 * g
    jac[:, 2] = -design.sw * n * 0.5 * v * sinb * env
    if not design.gauge:
        denv_dt0 = sigma_ps * np.sign(dt) * x * ex if design.fit_sigma else 0.0
        dp_dt0 = -0.5 * v * (2.0 * math.pi * sinb_d * env + cosb * denv_dt0)
        jac[:, 3] = -design.sw * n * dp_dt0
    if design.fit_detuning:
        dp_dd = -0.5 * v * (-sinb * 2.0 * math.pi * dt) * env
        jac[:, design.names.index("detuning")] = -design.sw * n * dp_dd
    if design.fit_sigma:
        jac[:, -1] = design.sw * n * 0.5 * v * cosb * (-(x**2) * ex)
    return residual, jac


@pytest.mark.parametrize("point", ["theta", "V=-0.0", "phi=-0.0"])
@pytest.mark.parametrize("kind", ["flat", "detuning", "4-pair", "sigma", "2-15", "slow-sigma"])
def test_design_evaluation_matches_the_reference_bytes(kind, point):
    # Each design kind, a flat 14-pair design and an envelope design whose
    # 10 MHz beat leaves the tau0 column to the envelope's slope, at its
    # theta, at V = -0.0 (signed zeros in the phi and tau0 columns) and at
    # phi = -0.0 on delays that include -0.0, where an argument
    # 2 pi d dt + phi is -0.0 and so is its sine.
    make, theta = _design_kind({"2-15": "4-pair", "slow-sigma": "sigma"}.get(kind, kind))
    design = make()
    taus, dets = design.t, design.d
    if kind == "2-15":
        dets = [d * 1e-12 for d in DETS_2_15]
    elif kind == "slow-sigma":
        dets = [1e7 * 1e-12]
    if point == "V=-0.0":
        theta[1] = -0.0
    elif point == "phi=-0.0":
        theta[2] = -0.0
        if not design.gauge:
            theta[3] = 0.0  # t0: -0.0 - 0.0 is -0.0
        taus = np.where(taus == taus[np.argmin(np.abs(taus))], -0.0, taus)
        assert np.signbit(taus[taus == 0.0]).all()
    design = _FringeDesign(taus, design.c, dets, fit_detuning=design.fit_detuning,
                           fit_sigma=design.fit_sigma)
    residual, jacobian = design.evaluate(theta.copy())
    jac = jacobian()
    ref_residual, ref_jac = _reference_evaluate(design, theta.copy())
    assert jac.dtype == np.float64 and jac.flags.c_contiguous
    assert jac.shape == ref_jac.shape == (taus.size, len(design.names))
    assert residual.tobytes() == ref_residual.tobytes()
    assert jac.tobytes() == ref_jac.tobytes()


@pytest.mark.parametrize("kind", ["flat", "detuning", "4-pair", "sigma"])
def test_polish_evaluates_the_model_once_per_iterate(kind, monkeypatch):
    # The polish builds each accepted iterate's Jacobian from that iterate's
    # evaluation: `evaluate` runs once per residual evaluation and each
    # Jacobian once per iterate, plus one of each at the canonical theta for
    # the covariance.  The envelope fit runs on fig2's coarse scan, where
    # every model evaluation calls envelope_terms with a scalar sigma, as
    # does the start's linear solve, once.
    evaluations, jacobians, scalar_calls, solutions = [], [], [], []
    evaluate = _FringeDesign.evaluate

    def counted_evaluate(design, theta):
        evaluations.append(1)
        residual, jacobian = evaluate(design, theta)

        def counted_jacobian():
            jacobians.append(1)
            return jacobian()

        return residual, counted_jacobian

    monkeypatch.setattr(_FringeDesign, "evaluate", counted_evaluate)
    terms = freqbin.fit.envelope_terms

    def counted_terms(sigma, tau):
        scalar_calls.append(np.ndim(sigma) == 0)
        return terms(sigma, tau)

    monkeypatch.setattr(freqbin.fit, "envelope_terms", counted_terms)
    solve = freqbin.fit.least_squares

    def recorded(*args):
        solutions.append(solve(*args))
        return solutions[-1]

    monkeypatch.setattr(freqbin.fit, "least_squares", recorded)
    if kind == "sigma":
        fit_envelope(_stock_coarse(load_config().seed))
    else:
        make, theta = _design_kind(kind)
        _polish(make(), theta, "fit")
    (solution,) = solutions
    assert solution.njev > 1
    assert len(evaluations) == solution.nfev + 1
    assert len(jacobians) == solution.njev + 1
    assert sum(scalar_calls) == (1 + solution.nfev + 1 if kind == "sigma" else 0)


def test_fringe_fit_with_a_linewidth_is_a_domain_error(detector):
    ds = _poisson_scan(0.7862, 0.4, 5, detector)
    with pytest.raises(DomainError, match="fit_envelope"):
        fit_fringe(ds, [DET2], sigma=ENV.sigma)


@pytest.mark.parametrize("detunings", [[math.nan], [math.inf], [DET2, math.nan], [0.0],
                                       [-DET2]], ids=["nan", "inf", "pair_nan", "zero", "negative"])
def test_fringe_fit_detunings_must_be_positive_and_finite(detunings, detector):
    ds = _poisson_scan(0.7862, 0.4, 5, detector)
    with pytest.raises(DomainError, match="positive and finite"):
        fit_fringe(ds, detunings)


def _refuse_design(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the fringe design was built before the scan check")

    monkeypatch.setattr(freqbin.fit, "_FringeDesign", built)


def test_fringe_fit_refuses_a_huge_design_before_building_it(monkeypatch):
    """3 pairs over 200,001 delays: 7 columns take 1,400,007 design entries."""
    _refuse_design(monkeypatch)
    ds = FringeDataset(np.arange(200_001) * 1e-16, np.arange(200_001) % 7, 1.0)
    with pytest.raises(DomainError, match=r"3 pairs over 200,001 delays: .* 1,400,007 entries"):
        fit_fringe(ds, DETS_2_5[:3])


def test_fringe_fit_refuses_a_scan_shorter_than_two_periods(monkeypatch):
    # 4 ps of 2-5 is less than one 5.05 ps period of adjacent pairs' beat.
    _refuse_design(monkeypatch)
    ds = exact_dataset(FINE_TAUS, _cosine_probability(FINE_TAUS, DETS_2_5, 0.8, 0.3, 0.0), 1e6)
    with pytest.raises(DomainError, match=r"spans 4 ps, below two periods .* 10\.09"):
        fit_fringe(ds, DETS_2_5)


@pytest.mark.parametrize("dets", [[DET2, DET3, DET5], [DET2, DET2]], ids=["gap", "repeated"])
def test_multiplexed_detunings_must_be_distinct_and_equally_spaced(dets):
    ds = exact_dataset(MULTI_TAUS, _cosine_probability(MULTI_TAUS, dets, 0.8, 0.3, 0.0), 1e6)
    with pytest.raises(DomainError, match="distinct and equally spaced"):
        fit_fringe(ds, dets)


def test_envelope_fit_names_a_malformed_detunings_header():
    taus, counts = np.linspace(0.0, 2.4e-9, 41), np.arange(41)
    for raw, token in (("abc", "'abc'"), (f"{DET2!r},x1", "'x1'")):
        with pytest.raises(DomainError, match=f"detunings_hz: .*{token}"):
            fit_envelope(FringeDataset(taus, counts, 1.0, {"detunings_hz": raw}))


@pytest.mark.parametrize("fit_detuning", [False, True])
def test_phase_gauge_covariance_is_inverse_fisher_at_zero_delay(fit_detuning, detector):
    # With tau0 pinned at 0 the model is identifiable; the reported sigmas
    # must be those of its inverse Fisher matrix, in reported units.
    ds = _poisson_scan(0.7862, 0.4, 5, detector)
    res = fit_fringe(ds, [DET2 * (1.0005 if fit_detuning else 1.0)],
                     fit_detuning=fit_detuning)
    assert "phase-gauge" in res.flags
    n, v, phi = (res.params[k] for k in ("scale", "visibility", "phi"))
    det = res.params["detuning"] if fit_detuning else DET2
    beat = 2.0 * math.pi * det * ds.taus + phi
    cols = [0.5 - 0.5 * v * np.cos(beat), -0.5 * n * np.cos(beat), 0.5 * n * v * np.sin(beat)]
    names = ["scale", "visibility", "phi"]
    if fit_detuning:
        cols.append(0.5 * n * v * np.sin(beat) * 2.0 * math.pi * ds.taus)
        names.append("detuning")
    jac = np.column_stack(cols) / np.sqrt(np.maximum(ds.counts, 1.0))[:, None]
    expected = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
    reported = np.array([res.sigmas[k] for k in names])
    np.testing.assert_allclose(reported, expected, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("fit_detuning", [False, True])
def test_single_pair_designs_leave_tau0_out(fit_detuning, detector):
    # One pair fixes only its zero-delay beat phase: tau0 is no parameter, the
    # Jacobian has full column rank and the covariance has no zero row.
    ds = _poisson_scan(0.7862, 0.4, 5, detector)
    design = _FringeDesign(ds.taus * 1e12, ds.counts.astype(np.float64), [DET2 * 1e-12],
                           fit_detuning=fit_detuning)
    theta = design.start()
    assert theta.size == len(design.names) == 3 + fit_detuning
    jac = design.evaluate(theta)[1]()
    assert np.linalg.matrix_rank(jac) == len(design.names)
    res = fit_fringe(ds, [DET2], fit_detuning=fit_detuning)
    assert "tau0" not in res.free_names
    assert "tau0 = 0.0 (fixed)" in res.report()
    assert res.covariance.shape == (len(res.free_names),) * 2
    assert np.all(np.any(res.covariance != 0.0, axis=1))


@pytest.mark.parametrize("pairs, scan, phi, fit_detuning, flagged", [
    ([5], "pair", None, True, True),
    ([10], "pair", None, True, True),
    ([15], "pair", None, True, True),
    ([2], "fine_zero", None, False, False),
    ([2], "pair", math.pi / 2, False, False),
    (range(2, 6), "multi", None, False, False),
    (range(2, 16), "multi", None, False, False),
])
def test_ill_conditioned_flag_is_a_condition_number_above_1e10(pairs, scan, phi,
                                                               fit_detuning, flagged):
    # fig3's single pairs, fig2's fine_zero window, fig4's single-pair window
    # at 90 degrees and fig3's 2-5 and 2-15, each as its scenario builds it.
    cfg = load_config()
    n = len(pairs)
    dets = [float(pair_for_index(cfg.resonator, m).detuning) for m in pairs]
    phase = cfg.theta + cfg.phi_instr if phi is None else phi
    model = FringeModel(tuple((d, cfg.visibility, phase) for d in dets), cfg.snapped_tau0,
                        0.0, ENV)
    accidental = accidental_rate(cfg.singles_signal * n, cfg.singles_idler * n,
                                 cfg.detector.coincidence_window)
    for seed in range(5):
        data = simulate_fringe(model, cfg.delay_scan(scan), cfg.detector, cfg.pair_rate * n,
                               seed, accidental=accidental)
        res = fit_fringe(data, dets, fit_detuning=fit_detuning)
        design = _FringeDesign(data.taus * 1e12, data.counts.astype(np.float64),
                               [d * 1e-12 for d in dets], fit_detuning=fit_detuning)
        theta = _polish(design, design.start(), "reference")[1]
        jac = design.evaluate(theta)[1]()
        cond = np.linalg.cond(jac.T @ jac)
        assert ("ill-conditioned" in res.flags) == (cond > 1e10) == flagged, (seed, cond)


class TestBalance:
    def test_reference_counts(self):
        p, sigma = estimate_balance(5914.0, 77.0, 2527.0, 50.0)
        assert abs(p - 0.7006) < 1e-4
        assert abs(sigma - 0.0050) < 1e-4

    def test_swapping_channels_mirrors_p(self):
        p, sigma = estimate_balance(5914.0, 77.0, 2527.0, 50.0)
        q, sigma_q = estimate_balance(2527.0, 50.0, 5914.0, 77.0)
        assert abs(p + q - 1.0) < 1e-12
        assert sigma == sigma_q

    def test_one_sided_counts(self):
        p, sigma = estimate_balance(1.0e6, 1.0e3, 0.0, 0.0)
        assert p == 1.0
        assert sigma == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError):
            estimate_balance(0.0, 0.0, 0.0, 0.0)

    @given(
        n1=st.floats(1.0, 1e6),
        n2=st.floats(1.0, 1e6),
        s1=st.floats(0.0, 1e3),
        s2=st.floats(0.0, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_estimate_stays_in_unit_interval(self, n1, n2, s1, s2):
        p, sigma = estimate_balance(n1, s1, n2, s2)
        assert 0.0 <= p <= 1.0
        assert sigma >= 0.0


class TestReconstruct:
    def test_reference_state_fidelity(self):
        res = reconstruct(0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094, seed=1)
        assert res.fidelity == pytest.approx(0.883022424278904, abs=1e-12)
        assert 0.009 < res.sigma_fidelity < 0.013
        assert res.rejection_rate == 0.0
        assert res.samples_accepted == 20000

    def test_monte_carlo_matches_linear_propagation(self):
        # first-order error propagation through the closed-form fidelity
        res = reconstruct(0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094, seed=9)
        assert abs(res.sigma_fidelity - 0.010772) / 0.010772 < 0.15

    def test_zero_uncertainty_collapses_sigma(self):
        res = reconstruct(0.701, 0.0, 0.7713, 0.0, -0.1168, 0.0, seed=2)
        assert res.fidelity == pytest.approx(0.883022424278904, abs=1e-12)
        assert res.sigma_fidelity == 0.0

    def test_maximally_entangled_input(self):
        res = reconstruct(0.5, 1e-9, 1.0, 1e-9, 0.0, 1e-9, seed=5)
        assert res.fidelity == pytest.approx(1.0, abs=1e-6)
        assert res.fidelity <= 1.0

    def test_seeded_runs_are_reproducible(self):
        a = reconstruct(0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094, seed=4)
        b = reconstruct(0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094, seed=4)
        assert a.fidelity == b.fidelity
        assert a.sigma_fidelity == b.sigma_fidelity
        assert a.rejection_rate == b.rejection_rate

    def test_nonphysical_central_values_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            reconstruct(0.9, 0.005, 0.9, 0.01, 0.0, 0.01)

    def test_inconsistent_uncertainties_rejected(self):
        with pytest.raises(ReconstructionError):
            reconstruct(0.9, 0.2, 0.6, 0.3, 0.0, 0.1, seed=3)

    @pytest.mark.parametrize("samples", [10**9, 1_000_001, 1, 2.5, 20000.0])
    def test_sample_count_is_refused_before_anything_is_built(self, samples, monkeypatch):
        # The [tomography] samples bound, integers only: 10**9 would ask for
        # 8 GB of indices, and 2.5 would draw 3 but count 2.5.
        def built(*args, **kwargs):
            raise AssertionError("reconstruct went past its sample check")

        monkeypatch.setattr(freqbin.fit, "restricted_density", built)
        monkeypatch.setattr(freqbin.fit, "CounterRng", built)
        with pytest.raises(DomainError, match=r"samples must be an integer in \[2, 1,000,000\]"):
            reconstruct(0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094, samples=samples)

    def test_target_angle_recorded(self):
        res = reconstruct(
            0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094,
            theta_target=math.pi / 2, seed=6,
        )
        assert res.theta_target == math.pi / 2
