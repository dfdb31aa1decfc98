"""Fringe fitting, envelope fitting, balance, and state reconstruction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import freqbin.fit
from freqbin.comb import pair_for_index
from freqbin.config import load_config
from freqbin.counting import FringeDataset, ScanConfig, accidental_rate, simulate_fringe
from freqbin.errors import DomainError, FitError, NonPhysicalStateError, ReconstructionError
from freqbin.fit import (
    _canonical_fringe,
    _FringeDesign,
    _polish,
    estimate_balance,
    fit_envelope,
    fit_fringe,
    reconstruct,
    tau0_profile_points,
)
from freqbin.hom import Envelope, FringeModel, hom_multi, revival_period

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
        assert res.converged

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

    def recorded(self, t0s, sigma_ps):
        sizes.append(len(t0s))
        return profile(self, t0s, sigma_ps)

    monkeypatch.setattr(_FringeDesign, "profile", recorded)
    fit_fringe(exact_dataset(FINE_TAUS, _cosine_probability(FINE_TAUS, dets, 0.8, 0.3, 0.0), 1e6),
               dets)
    assert sizes == [tau0_profile_points(dets)] == [points]


def _grid_search_residual_ss(data, detunings, fit_detuning=False):
    """Residual of the former search, kept as the reference optimum.

    32 Levenberg-Marquardt starts (four phases times eight delay offsets
    over one period of the slowest beat), each converged start polished
    at 1e-14 tolerance; the lowest residual is returned.  Single-pair fits
    are evaluated where the former search reported them, slid along the
    flat (phi, tau0) direction to tau0 = 0: a start can drift to
    |tau0| ~ 1 us, where phase rounding alone lowers the residual by about
    2e-9 relative.
    """
    order = np.argsort(data.taus)
    taus_ps = data.taus[order] * 1e12
    counts = data.counts[order].astype(np.float64)
    d_ps = [d * 1e-12 for d in detunings]
    design = _FringeDesign(taus_ps, counts, d_ps, fit_detuning=fit_detuning)
    n0 = 2.0 * counts.mean()
    v0 = float(np.clip(np.ptp(counts) / max(counts.mean(), 1.0) / 2.0, 0.05, 0.9))
    period_ps = 1.0 / min(d_ps)
    gauge = len(d_ps) == 1
    best = math.inf
    for phi0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        for j in range(8):
            x0 = [n0, v0, phi0, j * period_ps / 8.0]
            if fit_detuning:
                x0.append(d_ps[0])
            r = least_squares(design.residual, np.array(x0), jac=design.jacobian,
                              method="lm", xtol=1e-9, ftol=1e-9, gtol=1e-9,
                              max_nfev=200)
            if r.status > 0:
                x = least_squares(design.residual, r.x, jac=design.jacobian,
                                  method="lm", xtol=1e-14, ftol=1e-14,
                                  gtol=1e-14, max_nfev=400).x
                if gauge:
                    det = x[4] if fit_detuning else d_ps[0]
                    x[2] -= 2.0 * math.pi * det * x[3]
                    x[3] = 0.0
                best = min(best, float(np.sum(design.residual(x) ** 2)))
    return best


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
        res = fit_fringe(ds, [DET2], sigma=None)
        assert "degenerate-data" in res.flags
        assert res.params["visibility"] == 0.0

    def test_report_lists_parameters_and_flags(self, detector):
        ds = _poisson_scan(0.7862, 0.0, 42, detector)
        res = fit_fringe(ds, [DET2], sigma=None)
        text = res.report()
        assert "converged = True" in text
        assert "visibility = " in text
        assert "+/-" in text
        assert "flags = phase-gauge" in text
        assert "# covariance order: scale,visibility,phi,tau0" in text


class TestEnvelopeFit:
    def test_exact_data_recovers_linewidth(self):
        taus = np.arange(0.0, 2.4e-9 + 1e-15, 2e-12)
        model = FringeModel(((DET2, 0.84, 0.0),), 0.3e-9, 0.0, ENV)
        ds = exact_dataset(taus, hom_multi(model, taus), 1e7)
        res = fit_envelope(ds, detunings=[DET2])
        fwhm = float(MODEL.fwhm)
        assert abs(res.params["fwhm"] - fwhm) / fwhm < 0.01
        assert res.converged

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


def _coarse_scan(name, seed, detector):
    """Poisson 0-2.4 ns coarse scan of the stock fig2 source or a variant."""
    rate, tau0, fwhm = 67.0, 0.3e-9, float(MODEL.fwhm)
    if name == "low-rate":
        rate /= 10.0
    elif name == "tau0-1.5ns":
        tau0 = 1.5e-9
    elif name == "fwhm-400MHz":
        fwhm = 400e6
    model = FringeModel(((DET2, 0.84, 0.0),), tau0, 0.0, Envelope.from_fwhm(fwhm))
    scan = ScanConfig(0.0, 2.4e-9, 2e-12, 60.0)
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
    _, coefs = full.profile([t01], math.exp(u1))
    res = _polish(full, full.start(t01, coefs[0], math.exp(u1)), "reference")
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


def test_fringe_fit_with_a_linewidth_is_a_domain_error(detector):
    ds = _poisson_scan(0.7862, 0.4, 5, detector)
    with pytest.raises(DomainError, match="fit_envelope"):
        fit_fringe(ds, [DET2], sigma=ENV.sigma)


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
