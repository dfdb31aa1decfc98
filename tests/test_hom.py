"""HOM fringe closed forms: envelope, beats, revival, dip widths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from freqbin.comb import pair_for_index
from freqbin.config import load_config
from freqbin.errors import DomainError
from freqbin.hom import (
    Envelope,
    FringeModel,
    _brentq,
    central_dip_fwhm,
    envelope_value,
    hom_multi,
    revival_period,
)

MODEL = load_config().resonator
SIGMA = 2.0 * math.pi * 190.41e6
HALF_ROOT = 1.6783469900166608      # root of (1+x)e^-x = 1/2
EXTENT_ROOT = 4.743864518390578     # root of (1+x)e^-x = 0.05


def detuning(m):
    return float(pair_for_index(MODEL, m).detuning)


def multi_model(indices, v=1.0, phi=0.0, tau0=0.0, alpha=0.0):
    pairs = tuple((detuning(m), v, phi) for m in indices)
    return FringeModel(pairs, tau0, alpha, Envelope(SIGMA))


def test_envelope_normalized_at_zero():
    assert envelope_value(Envelope(SIGMA), 0.0) == 1.0


def test_envelope_half_level_root():
    tau = HALF_ROOT / SIGMA
    assert envelope_value(Envelope(SIGMA), tau) == pytest.approx(0.5, abs=1e-12)
    assert envelope_value(Envelope(SIGMA), -tau) == pytest.approx(0.5, abs=1e-12)


def test_envelope_five_percent_extent():
    env = Envelope(SIGMA)
    edge = EXTENT_ROOT / SIGMA
    assert envelope_value(env, edge) == pytest.approx(0.05, abs=1e-12)
    taus = np.linspace(edge, 50e-9, 500)
    assert np.all(envelope_value(env, taus) <= 0.05 + 1e-12)


def test_envelope_matches_quadrature():
    # E(tau) is the normalized cosine transform of the squared Lorentzian
    # |f(Omega)|^2 with half width sigma/2.  The oscillatory weight keeps
    # quad stable out to ~100 fringe cycles.
    env = Envelope(SIGMA)

    def numeric(tau):
        # Dimensionless u = 2 Omega / sigma keeps quadpack well scaled.
        c = SIGMA * abs(tau)
        val, _ = quad(lambda u: 1.0 / (1.0 + u * u) ** 2, 0.0, 200.0,
                      weight="cos", wvar=c, limit=2000)
        return val

    norm = numeric(0.0)
    for tau in np.linspace(-8e-9, 8e-9, 17):
        assert abs(envelope_value(env, tau) - numeric(tau) / norm) < 1e-6


def test_envelope_from_fwhm():
    env = Envelope.from_fwhm(190_410_000)
    assert env.sigma == pytest.approx(SIGMA, rel=1e-12)


def test_envelope_requires_positive_sigma():
    with pytest.raises(DomainError):
        Envelope(0.0)


@given(t=st.floats(min_value=1e-13, max_value=1e-7),
       scale=st.floats(min_value=1.001, max_value=10.0))
def test_envelope_strictly_decreasing(t, scale):
    env = Envelope(SIGMA)
    assert envelope_value(env, t * scale) < envelope_value(env, t)


def test_single_perfect_dip_and_peak():
    dip = multi_model([5], v=1.0, phi=0.0)
    assert hom_multi(dip, 0.0) == pytest.approx(0.0, abs=1e-15)
    peak = multi_model([5], v=1.0, phi=math.pi)
    assert hom_multi(peak, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_single_baseline_far_out():
    model = multi_model([5], v=1.0)
    assert hom_multi(model, 20e-9) == pytest.approx(0.5, abs=1e-8)


def test_single_adjacent_minima_spacing():
    model = multi_model([5], v=1.0)
    period = 1.0 / detuning(5)
    assert period == pytest.approx(1.0098e-12, rel=1e-4)
    taus = np.arange(-3, 4) * period
    values = hom_multi(model, taus)
    # Each grid point sits on a minimum: small values, envelope-limited.
    assert np.all(values < 0.01)
    mid = hom_multi(model, period / 2.0)
    assert mid > 0.9


def test_multi_revival_minima():
    model = multi_model([2, 3, 4, 5])
    period = revival_period(MODEL.fsr)
    assert period == pytest.approx(5.048975058063213e-12, rel=1e-15)
    revivals = np.arange(-2, 3) * period
    vals = hom_multi(model, revivals)
    assert np.all(vals < 0.01)
    # Between revivals the average beat washes toward the baseline.
    between = hom_multi(model, revivals[:-1] + period / 2.0)
    assert np.all(between > 0.25)


def test_period_validation():
    with pytest.raises(DomainError):
        revival_period(-1.0)


def test_dip_fwhm_goldens_and_monotonicity():
    widths = [central_dip_fwhm(multi_model(range(2, hi + 1))) for hi in (5, 10, 15)]
    assert widths[0] == pytest.approx(0.4662213811586983e-12, rel=1e-9)
    assert widths[1] == pytest.approx(0.26524428364580355e-12, rel=1e-9)
    assert widths[2] == pytest.approx(0.18502248479457017e-12, rel=1e-9)
    assert widths[0] > widths[1] > widths[2]


def _dip_fwhm_pointwise(model):
    """Reference dip width: the search grid evaluated one delay at a time."""
    v0 = float(hom_multi(model, model.tau0))
    half = 0.5 * (v0 + 0.5)
    span = 2.0 / max(d for d, _, _ in model.pairs)

    def height(t):
        return hom_multi(model, model.tau0 + t) - half

    widths = []
    for sign in (+1.0, -1.0):
        grid = sign * np.linspace(0.0, span, 4001)[1:]
        vals = np.array([height(t) for t in grid])
        i = int(np.nonzero(np.sign(vals) != np.sign(height(0.0)))[0][0])
        lo = grid[i - 1] if i > 0 else 0.0
        widths.append(abs(brentq(height, min(lo, grid[i]), max(lo, grid[i]),
                                 xtol=1e-18)))
    return widths[0] + widths[1]


@pytest.mark.parametrize("model", [
    multi_model(range(2, 6)),
    multi_model(range(2, 16), v=0.9, phi=0.3, tau0=3e-12, alpha=0.1),
    multi_model([3], v=0.8, phi=0.2),
    multi_model(range(2, 26), v=0.85, phi=-0.4, tau0=-2e-12, alpha=0.15),
])
def test_dip_fwhm_matches_pointwise_search(model):
    assert central_dip_fwhm(model) == _dip_fwhm_pointwise(model)


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x**3 - 2.0, 0.0, 3.0),
    (lambda x: math.cos(x) - 0.3, -0.5, 3.0),
    (lambda x: math.exp(x) - 0.4 * x - 2.0, -0.5, 3.0),
    (lambda x: (x - 0.37) ** 5, -0.5, 3.0),
    (lambda x: x - 1.0, 1.0, 2.0),
], ids=["cubic", "cosine", "exponential", "flat_root", "root_at_end"])
@pytest.mark.parametrize("xtol", [1e-18, 2e-12, 1e-6])
def test_brentq_port_matches_scipy(f, a, b, xtol):
    """Same root, same number of evaluations, on interpolating and bisecting paths."""
    calls = {"port": 0, "scipy": 0}

    def counted(key):
        def g(x):
            calls[key] += 1
            return f(x)
        return g

    try:
        expected = brentq(counted("scipy"), a, b, xtol=xtol)
    except RuntimeError:
        with pytest.raises(DomainError, match="did not converge"):
            _brentq(counted("port"), a, b, xtol)
    else:
        assert _brentq(counted("port"), a, b, xtol) == expected
    assert calls["port"] == calls["scipy"]


def test_brentq_rejects_unbracketed_root():
    with pytest.raises(DomainError, match="same sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_model_validation():
    env = Envelope(SIGMA)
    with pytest.raises(DomainError):
        FringeModel((), 0.0, 0.0, env)
    with pytest.raises(DomainError):
        FringeModel(((detuning(2), 1.5, 0.0),), 0.0, 0.0, env)
    with pytest.raises(DomainError):
        FringeModel(((detuning(2), 0.5, 0.0),), 0.0, 1.5, env)
    with pytest.raises(DomainError):
        FringeModel(((-1.0, 0.5, 0.0),), 0.0, 0.0, env)


@st.composite
def fringe_models(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ms = draw(st.lists(st.integers(min_value=1, max_value=15),
                       min_size=n, max_size=n, unique=True))
    v = draw(st.floats(min_value=0.0, max_value=1.0))
    phi = draw(st.floats(min_value=-7.0, max_value=7.0))
    tau0 = draw(st.floats(min_value=-5e-12, max_value=5e-12))
    alpha = draw(st.floats(min_value=0.0, max_value=1.0))
    return multi_model(ms, v=v, phi=phi, tau0=tau0, alpha=alpha)


@given(model=fringe_models(),
       tau=st.floats(min_value=-2e-11, max_value=2e-11))
@settings(max_examples=200)
def test_probability_bounds(model, tau):
    p = float(hom_multi(model, tau))
    assert 0.0 <= p <= 1.0


@given(v=st.floats(min_value=0.0, max_value=1.0),
       phi=st.floats(min_value=-7.0, max_value=7.0),
       t=st.floats(min_value=-1e-11, max_value=1e-11),
       tau0=st.floats(min_value=-2e-12, max_value=2e-12))
@settings(max_examples=150)
def test_single_reflection_symmetry(v, phi, t, tau0):
    left = multi_model([3], v=v, phi=phi, tau0=tau0)
    right = multi_model([3], v=v, phi=-phi, tau0=tau0)
    a = float(hom_multi(left, tau0 + t))
    b = float(hom_multi(right, tau0 - t))
    assert a == pytest.approx(b, abs=1e-12)


@given(perm=st.permutations([2, 3, 4, 5]),
       tau=st.floats(min_value=-1e-11, max_value=1e-11))
@settings(max_examples=100)
def test_pair_permutation_invariance(perm, tau):
    base = multi_model([2, 3, 4, 5], v=0.9)
    shuffled = multi_model(perm, v=0.9)
    assert float(hom_multi(base, tau)) == pytest.approx(
        float(hom_multi(shuffled, tau)), abs=1e-15)


@given(model=fringe_models(),
       tau=st.floats(min_value=-1e-11, max_value=1e-11))
@settings(max_examples=150)
def test_phase_shift_alternation(model, tau):
    if model.alpha != 0.0:
        model = FringeModel(model.pairs, model.tau0, 0.0, model.envelope)
    shifted = FringeModel(
        tuple((d, v, phi + math.pi) for d, v, phi in model.pairs),
        model.tau0, 0.0, model.envelope)
    assert float(hom_multi(model, tau)) + float(hom_multi(shifted, tau)) \
        == pytest.approx(1.0, abs=1e-12)
