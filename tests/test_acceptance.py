"""End-to-end acceptance checks, one test per headline requirement.

Run with -v to get a pass/fail line per requirement.  Each test is
self-contained: it builds its own inputs, states the tolerance it
enforces, and times itself where a budget applies.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from freqbin.comb import pair_for_index
from freqbin.config import load_config
from freqbin.counting import DetectorModel, ScanConfig, simulate_fringe
from freqbin.errors import NonPhysicalStateError
from freqbin.fit import estimate_balance, fit_fringe, reconstruct
from freqbin.hom import (
    Envelope,
    FringeModel,
    central_dip_fwhm,
    envelope_value,
    hom_multi,
    revival_period,
)
from freqbin.scenarios import run_scenario
from freqbin.states import (
    compose_waveplates,
    phase_from_stack,
    restricted_density,
    stack_for_phase,
    WaveplateStack,
)

MODEL = load_config().resonator
ENV = Envelope.from_fwhm(MODEL.fwhm)
DETECTOR = DetectorModel(0.5, 0.5, 100.0, 1e-9)


def _wrap(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _pair_detuning(m):
    return float(pair_for_index(MODEL, m).detuning)


def test_acceptance_01_reference_reconstruction_fidelity():
    """F = 0.8830 +/- 0.0005 with sigma_F in [0.009, 0.013], under 1 s."""
    start = time.perf_counter()
    res = reconstruct(0.701, 0.005, 0.7713, 0.0193, -0.1168, 0.1094)
    elapsed = time.perf_counter() - start
    assert abs(res.fidelity - 0.8830) <= 0.0005
    assert 0.009 <= res.sigma_fidelity <= 0.013
    assert elapsed < 1.0


def test_acceptance_02_sideband_balance_estimate():
    """(5914+/-77, 2527+/-50) -> p = 0.7006(2), sigma_p = 0.0050(3), <1 ms."""
    estimate_balance(5914.0, 77.0, 2527.0, 50.0)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        p, sigma_p = estimate_balance(5914.0, 77.0, 2527.0, 50.0)
        best = min(best, time.perf_counter() - start)
    assert abs(p - 0.7006) <= 0.0002
    assert abs(sigma_p - 0.0050) <= 0.0003
    assert best < 1e-3


def test_acceptance_03_fitted_oscillation_periods_within_half_percent():
    """Pairs 5/10/15 fit to 1.0098/0.5049/0.3366 ps within 0.5%, <10 s."""
    start = time.perf_counter()
    scan = ScanConfig(-2e-12, 2e-12, 0.1e-12, 60.0)
    for seed, (m, expected_ps) in enumerate(
        [(5, 1.0098), (10, 0.5049), (15, 0.3366)], start=11
    ):
        detuning = _pair_detuning(m)
        model = FringeModel(((detuning, 0.84, 0.0),), 0.0, 0.0, ENV)
        data = simulate_fringe(model, scan, DETECTOR, pair_rate=67.0, seed=seed)
        res = fit_fringe(data, [detuning], sigma=None, fit_detuning=True)
        period_ps = 1e12 / res.params["detuning"]
        assert abs(period_ps - expected_ps) / expected_ps <= 0.005
    assert time.perf_counter() - start < 10.0


def test_acceptance_04_revival_positions_and_dip_narrowing():
    """Revivals at multiples of 1/(2 fsr); dip narrows as pairs are added."""
    period = revival_period(float(MODEL.fsr))
    pairs = tuple((_pair_detuning(m), 1.0, 0.0) for m in range(2, 6))
    model = FringeModel(pairs, 0.0, 0.0, ENV)
    step = 0.005e-12
    taus = np.arange(-0.5 * period, 3.5 * period, step)
    p = hom_multi(model, taus)
    for j in range(4):
        window = np.abs(taus - j * period) <= 0.5 * period
        tau_min = taus[window][np.argmin(p[window])]
        assert abs(tau_min - j * period) <= step * 1.000001
    widths = []
    for top in (6, 11, 16):
        group = tuple((_pair_detuning(m), 1.0, 0.0) for m in range(2, top))
        widths.append(central_dip_fwhm(FringeModel(group, 0.0, 0.0, ENV)))
    assert widths[0] > widths[1] > widths[2]


def test_acceptance_05_envelope_matches_lorentzian_quadrature():
    """Closed-form envelope equals the lineshape integral to 1e-6, <5 s."""
    start = time.perf_counter()
    sigma = ENV.sigma

    def numeric(tau):
        value, _ = quad(
            lambda u: 1.0 / (1.0 + u * u) ** 2,
            0.0, 200.0,
            weight="cos", wvar=sigma * abs(tau), limit=2000,
        )
        return value

    norm = numeric(0.0)
    for tau in np.linspace(-10e-9, 10e-9, 21):
        closed = envelope_value(ENV, tau)
        assert abs(closed - numeric(tau) / norm) < 1e-6
    assert time.perf_counter() - start < 5.0


def _envelope_edges(level):
    """Delays where envelope_value crosses `level`, below and above zero."""
    def excess(tau):
        return envelope_value(ENV, tau) - level

    lower = brentq(excess, -50e-9, 0.0, xtol=1e-22, rtol=1e-15)
    upper = brentq(excess, 0.0, 50e-9, xtol=1e-22, rtol=1e-15)
    return lower, upper


def test_acceptance_05_envelope_five_percent_extent():
    """Decay to 5% of peak spans 7.93 +/- 0.1 ns around zero delay.

    For E = (1 + x) e^-x with x = sigma|tau|, the 5% level is at
    x5 = 4.7438645..., so the full extent is 2 x5 / sigma = 7.930 ns at
    the 190.41 MHz linewidth.  The 8.4 ns figure is the ~4% level.
    """
    lower, upper = _envelope_edges(0.05)
    extent_ns = (upper - lower) * 1e9
    x5 = 4.743864518390578              # root of (1+x)e^-x = 0.05
    closed_form_ns = 2.0 * x5 / ENV.sigma * 1e9
    assert upper == pytest.approx(-lower, rel=1e-9)
    assert extent_ns == pytest.approx(closed_form_ns, rel=1e-9)
    assert abs(extent_ns - 7.93) <= 0.1, (
        f"5% extent is {extent_ns:.4f} ns, expected 7.93 ns "
        "for the 190.41 MHz linewidth"
    )
    outside = np.concatenate([np.linspace(-50e-9, lower, 500),
                              np.linspace(upper, 50e-9, 500)])
    assert np.all(envelope_value(ENV, outside) <= 0.05 + 1e-12)
    lower4, upper4 = _envelope_edges(0.04)
    assert abs((upper4 - lower4) * 1e9 - 8.4) <= 0.1


def test_acceptance_06_visibility_error_bars_cover_truth():
    """Over 100 seeds, 3 sigma covers V* >= 95 times; median sigma sane."""
    truth = 0.7862
    detuning = _pair_detuning(2)
    scan = ScanConfig(-2e-12, 2e-12, 0.1e-12, 60.0)
    model = FringeModel(((detuning, truth, 0.0),), 0.0, 0.0, ENV)
    covered = 0
    sigmas = []
    for seed in range(100):
        data = simulate_fringe(model, scan, DETECTOR, pair_rate=13.33, seed=seed)
        res = fit_fringe(data, [detuning], sigma=None)
        sigmas.append(res.sigmas["visibility"])
        if abs(res.params["visibility"] - truth) <= 3.0 * res.sigmas["visibility"]:
            covered += 1
    assert covered >= 95
    assert 0.01 <= float(np.median(sigmas)) <= 0.06


def test_acceptance_07_programmed_phases_recovered_from_fits(tmp_path):
    """The four phase settings come back within 0.1 rad, V > 0.75."""
    cfg = load_config()
    for degrees in (0.0, 90.0, 180.0, 270.0):
        theta_target = math.radians(degrees)
        stack = stack_for_phase(theta_target)
        assert abs(_wrap(phase_from_stack(stack) - theta_target)) < 1e-9
        out = tmp_path / f"deg{int(degrees)}"
        summary = dict(
            line.split(" = ", 1)
            for line in run_scenario("fig4", cfg, out, phase=degrees).splitlines()
            if " = " in line
        )
        for stem in ("single", "multi"):
            error = float(summary[f"{stem}_phi_error"])
            visibility = float(summary[f"{stem}_visibility"].split(" +/- ")[0])
            assert abs(error) <= 0.1, (stem, degrees, error)
            assert visibility > 0.75, (stem, degrees, visibility)
        detuning = _pair_detuning(2)
        fsr = float(MODEL.fsr)
        tau0 = round(0.3e-9 * 2.0 * fsr) / (2.0 * fsr)
        base = FringeModel(((detuning, 0.84, theta_target),), tau0, 0.0, ENV)
        flipped = FringeModel(
            ((detuning, 0.84, theta_target + math.pi),), tau0, 0.0, ENV
        )
        total = hom_multi(base, tau0) + hom_multi(flipped, tau0)
        assert abs(total - 1.0) < 1e-12


def test_acceptance_08_bulk_state_and_waveplate_checks():
    """1000 physical states, 1000 rejections, 1000 unitary stacks."""
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        p = rng.uniform(0.0, 1.0)
        vmax = 2.0 * math.sqrt(max(p * (1.0 - p), 0.0))
        V = rng.uniform(0.0, 1.0) * vmax
        rho = restricted_density(p, V, rng.uniform(-math.pi, math.pi))
        m = rho.matrix()
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-12
    for _ in range(1000):
        p = rng.uniform(0.1, 0.4)
        vmax = 2.0 * math.sqrt(p * (1.0 - p))
        V = min(vmax * (1.0 + rng.uniform(0.05, 0.5)), 1.0)
        with pytest.raises(NonPhysicalStateError):
            restricted_density(p, V, 0.0)
    kinds = ("quarter", "half")
    for _ in range(1000):
        n = rng.integers(1, 5)
        elements = tuple(
            (kinds[rng.integers(0, 2)], rng.uniform(0.0, math.pi))
            for _ in range(n)
        )
        u = compose_waveplates(WaveplateStack(elements))
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_acceptance_09_worker_count_does_not_change_outputs(tmp_path):
    """fig3 with 1, 2, or 8 workers writes byte-identical files."""
    cfg = load_config()
    outputs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        run_scenario("fig3", cfg, out, seed=777, workers=workers, pairs="2-5")
        outputs[workers] = {
            path.name: path.read_bytes() for path in sorted(out.iterdir())
        }
    assert outputs[1].keys() == outputs[2].keys() == outputs[8].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[2][name], name
        assert outputs[1][name] == outputs[8][name], name
