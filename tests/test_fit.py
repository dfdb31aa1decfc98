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
    _canonical_fringe,
    _X_HALF,
    _envelope_start,
    _FringeDesign,
    _polish,
    estimate_balance,
    fit_envelope,
    fit_fringe,
    reconstruct,
    tau0_profile_points,
)
from freqbin.hom import Envelope, FringeModel, envelope_terms, hom_multi, revival_period

from conftest import exact_dataset

MODEL = load_config().resonator
DET2 = float(pair_for_index(MODEL, 2).detuning)
DET3 = float(pair_for_index(MODEL, 3).detuning)
DETS_2_5 = [float(pair_for_index(MODEL, m).detuning) for m in range(2, 6)]
DETS_2_15 = [float(pair_for_index(MODEL, m).detuning) for m in range(2, 16)]
ENV = Envelope.from_fwhm(MODEL.fwhm)

FINE_TAUS = np.arange(-2e-12, 2.0001e-12, 0.05e-12)


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
        p = _cosine_probability(FINE_TAUS, [DET2, DET3], 0.8, 1.0, tau0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
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
        assert 0.0 <= res.visibility_clamped <= 1.0

    def test_revival_alias_resolves_to_smallest_offset(self):
        # Without the envelope the 2-5 model repeats every revival period.
        tau0 = 3.0 * revival_period(MODEL.fsr) + 0.37e-12
        p = _cosine_probability(FINE_TAUS, DETS_2_5, 0.8, 1.0, tau0)
        ds = exact_dataset(FINE_TAUS, p, 1e9)
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


@pytest.mark.parametrize("dets, points", [([DET2], 1), (DETS_2_5, 81), (DETS_2_15, 241)],
                         ids=["2", "2-5", "2-15"])
def test_profile_grid_has_the_counted_points(monkeypatch, dets, points):
    # The scenarios bound a fit's work by tau0_profile_points, so it must
    # count the grid fit_fringe actually profiles.
    sizes = []
    profile = _FringeDesign.profile

    def recorded(self, t0s):
        sizes.append(len(t0s))
        return profile(self, t0s)

    monkeypatch.setattr(_FringeDesign, "profile", recorded)
    fit_fringe(exact_dataset(FINE_TAUS, _cosine_probability(FINE_TAUS, dets, 0.8, 0.3, 0.0), 1e6),
               dets)
    assert sizes == [tau0_profile_points(dets)] == [points]


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
            r = least_squares(design.residual, np.array(x0), jac=design.jacobian,
                              method="lm", xtol=1e-9, ftol=1e-9, gtol=1e-9,
                              max_nfev=200)
            if r.status > 0:
                x = least_squares(design.residual, r.x, jac=design.jacobian,
                                  method="lm", xtol=1e-14, ftol=1e-14,
                                  gtol=1e-14, max_nfev=400).x
                best = min(best, float(np.sum(design.residual(x) ** 2)))
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


def _profile_case(data, detunings):
    """fit_fringe's design and tau0 grid for a multiplexed scan."""
    d_ps = [d * 1e-12 for d in detunings]
    design = _FringeDesign(data.taus * 1e12, data.counts.astype(np.float64), d_ps)
    period_ps = 1.0 / min(d_ps)
    return design, np.linspace(-period_ps, period_ps, tau0_profile_points(detunings))


def _tie_winner(costs, t0s):
    ties = np.flatnonzero(costs <= costs.min() * (1.0 + freqbin.fit._TIE_REL) + 1e-12)
    return ties[np.argmin(np.abs(t0s[ties]))]


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
    if name == "exact-2-5":
        # tau0 off the grid: an exact fit's cost is only rounding (see below).
        tau0 = 3.0 * revival_period(MODEL.fsr) + 0.37e-12
        p = _cosine_probability(FINE_TAUS, DETS_2_5, 0.8, 1.0, tau0)
        ds, dets = exact_dataset(FINE_TAUS, p, 1e9), DETS_2_5
    else:
        ds, dets, _ = _reference_case(name, detector)
    design, t0s = _profile_case(ds, dets)
    costs, _ = design.profile(t0s)
    ref, _ = _direct_profile(design, t0s)
    assert _tie_winner(costs, t0s) == _tie_winner(ref, t0s)
    np.testing.assert_allclose(costs, ref, rtol=1e-9, atol=0.0)
    assert np.all(costs >= 0.0)


def test_profile_cost_of_an_exact_fit_is_not_negative():
    # On exact data the grid's tau0 = 0 fits to rounding; y'y - beta.R'h
    # could then fall below 0 and leave the tie set empty.
    ds = exact_dataset(FINE_TAUS, _cosine_probability(FINE_TAUS, DETS_2_5, 0.8, 0.3, 0.0), 1e9)
    design, t0s = _profile_case(ds, DETS_2_5)
    costs, _ = design.profile(t0s)
    assert np.all(costs >= 0.0)
    assert _tie_winner(costs, t0s) == _tie_winner(_direct_profile(design, t0s)[0], t0s)
    assert t0s[_tie_winner(costs, t0s)] == pytest.approx(0.0, abs=1e-12)


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

    def test_constant_counts_flag_degenerate(self):
        taus = np.arange(-2e-12, 2.0001e-12, 0.1e-12)
        ds = FringeDataset(taus, np.full(taus.size, 500, dtype=np.int64), 1.0)
        for dets, options in (([DET2], {}), ([DET2], {"fit_detuning": True}),
                              ([DET2, DET3], {})):
            res = fit_fringe(ds, dets, sigma=None, **options)
            assert "degenerate-data" in res.flags
            assert res.params["visibility"] == 0.0
            assert res.covariance.shape == (len(res.free_names),) * 2
            assert ("tau0" in res.free_names) == (len(dets) == 2)

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
    dt = taus_ps - t01
    th = 2.0 * math.pi * full.d[0] * dt
    scale = full.sw * envelope_terms(math.exp(u1), dt)[2]
    basis = np.column_stack([full.sw, np.cos(th) * scale, np.sin(th) * scale])
    coef = np.linalg.pinv(basis.T @ basis) @ (basis.T @ (full.sw * counts))
    res = _polish(full, full.start(t01, coef, math.exp(u1)), "reference")
    n, v, phi, t0, u = _canonical_fringe(res.x)
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
        _polish(design, np.array([math.nan, 0.5, 0.0, 0.0]), "fringe fit")


def test_polish_at_the_evaluation_cap_is_a_fit_error():
    # r = 1/x has its minimum at infinity: each step doubles x and promises
    # as large a relative decrease again, so only the cap ends the polish.
    design = SimpleNamespace(residual=lambda x: 1.0 / x,
                             jacobian=lambda x: np.diag(-1.0 / x**2))
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


def _fresh(make, method, theta):
    return getattr(make(), method)(theta.copy())


@pytest.mark.parametrize("pair", ["moved", "signed-zero"])
@pytest.mark.parametrize("kind", ["flat", "detuning", "4-pair", "sigma"])
def test_design_evaluations_match_fresh_designs(kind, pair):
    # One design keeps its last evaluation: interleaved residuals and
    # Jacobians at two thetas must equal those of a fresh design, byte for
    # byte.  "moved" changes only the last parameter; "signed-zero" only
    # the sign of V = 0, which flips the zeros of the phi and tau0 columns.
    make, a = _design_kind(kind)
    b = a.copy()
    if pair == "moved":
        b[-1] *= 1.001
    else:
        a[1], b[1] = 0.0, -0.0
    assert _fresh(make, "jacobian", a).tobytes() != _fresh(make, "jacobian", b).tobytes()
    design = make()
    for method, theta in (("residual", a), ("jacobian", a), ("residual", b),
                          ("jacobian", a), ("jacobian", b), ("residual", a)):
        got = getattr(design, method)(theta)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == _fresh(make, method, theta).tobytes()
    assert design.jacobian(a).shape == (design.t.size, len(design.names))


def test_design_reevaluates_a_theta_mutated_in_place():
    # The kept evaluation is keyed by theta's values, not its identity: a
    # caller may edit theta in place between calls.
    make, theta = _design_kind("flat")
    design = make()
    design.residual(theta)
    theta[2] -= 0.3
    assert design.jacobian(theta).tobytes() == _fresh(make, "jacobian", theta).tobytes()
    assert design.residual(theta).tobytes() == _fresh(make, "residual", theta).tobytes()


def test_design_keeps_nothing_of_an_evaluation_that_raises():
    # exp overflows on a runaway log linewidth; _polish makes that a FitError.
    make, theta = _design_kind("sigma")
    design = make()
    design.residual(theta)
    runaway = theta.copy()
    runaway[-1] = 710.0
    for _ in range(2):
        with pytest.raises(OverflowError):
            design.jacobian(runaway)
    after = theta.copy()
    after[0] *= 1.5
    for x in (after, theta):
        for method in ("jacobian", "residual"):
            assert getattr(design, method)(x).tobytes() == _fresh(make, method, x).tobytes()


def test_envelope_polish_evaluates_the_model_once_per_iterate(monkeypatch):
    # Every model evaluation at a linewidth calls envelope_terms with a scalar
    # sigma, as does the start's linear solve, once.  The polish's Jacobians
    # reuse its residuals' evaluations; the covariance's Jacobian is at the
    # canonical theta, one more.
    ds = _stock_coarse(load_config().seed)
    scalar_calls = []
    terms = freqbin.fit.envelope_terms

    def counted(sigma, tau):
        scalar_calls.append(np.ndim(sigma) == 0)
        return terms(sigma, tau)

    monkeypatch.setattr(freqbin.fit, "envelope_terms", counted)
    solutions = []
    solve = freqbin.fit.least_squares

    def recorded(*args):
        solutions.append(solve(*args))
        return solutions[-1]

    monkeypatch.setattr(freqbin.fit, "least_squares", recorded)
    fit_envelope(ds)
    (solution,) = solutions
    assert solution.njev > 1
    assert sum(scalar_calls) == 1 + solution.nfev + 1


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


def test_fringe_fit_refuses_a_huge_profile_before_building_it(monkeypatch):
    """[1e9, 1e15] Hz would profile 32,000,001 offsets through a 3.8 GB
    mixing array; the refusal comes before the design is built."""
    def built(*args, **kwargs):
        raise AssertionError("the fringe design was built before the work check")

    monkeypatch.setattr(freqbin.fit, "_FringeDesign", built)
    ds = FringeDataset(np.arange(41) * 1e-13, np.arange(41), 1.0)
    with pytest.raises(DomainError, match=r"detunings 1e\+09 to 1e\+15 Hz .* 160,000,005"):
        fit_fringe(ds, [1e9, 1e15])


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
    _, coefs = design.profile(np.zeros(1))
    jac = design.jacobian(design.start(0.0, coefs[0], None))
    assert np.linalg.matrix_rank(jac) == len(design.names)
    res = fit_fringe(ds, [DET2], fit_detuning=fit_detuning)
    assert "tau0" not in res.free_names
    assert "tau0 = 0.0 (fixed)" in res.report()
    assert res.covariance.shape == (len(res.free_names),) * 2
    assert np.all(np.any(res.covariance != 0.0, axis=1))


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

    def test_target_angle_recorded(self):
        res = reconstruct(
            0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094,
            theta_target=math.pi / 2, seed=6,
        )
        assert res.theta_target == math.pi / 2
