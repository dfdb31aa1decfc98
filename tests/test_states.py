"""Bin states, waveplate phase control, and the restricted density matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.comb import DEFAULT_MODEL, pair_for_index
from freqbin.errors import DomainError, NonPhysicalStateError, PhaseGateError
from freqbin.states import (
    WaveplateStack,
    compose_waveplates,
    density_report,
    fidelity,
    fidelity_from_matrix,
    frequency_bin_state,
    hwp_angle_for_phase,
    phase_from_stack,
    restricted_density,
    stack_for_phase,
)

TWO_PI = 2.0 * math.pi


def physical_triples():
    """(p, V, phi) strictly inside the physicality disc."""
    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-10.0, max_value=10.0),
    ).map(lambda t: (t[0], t[1] * 2.0 * math.sqrt(max(0.25 - (t[0] - 0.5) ** 2, 0.0)), t[2]))


def random_stack(rng, max_len=6):
    n = rng.integers(0, max_len + 1)
    kinds = rng.choice(["quarter", "half"], size=n)
    angles = rng.uniform(0.0, math.pi, size=n)
    return WaveplateStack(tuple(zip(kinds.tolist(), angles.tolist())))


# ---------------------------------------------------------------- bin states

def test_state_defaults_and_normalization():
    pairs = [pair_for_index(DEFAULT_MODEL, m) for m in (2, 3, 5)]
    state = frequency_bin_state(pairs, weights=[2.0, 1.0, 1.0])
    assert state.M == 3
    assert state.weights == (0.5, 0.25, 0.25)
    assert state.thetas == (0.0, 0.0, 0.0)


def test_state_single_pair_beat():
    pair = pair_for_index(DEFAULT_MODEL, 2)
    state = frequency_bin_state([pair], thetas=[math.pi])
    assert state.M == 1
    assert state.weights == (1.0,)
    assert state.thetas == (math.pi,)


def test_state_fourteen_equal_pairs():
    pairs = [pair_for_index(DEFAULT_MODEL, m) for m in range(2, 16)]
    state = frequency_bin_state(pairs)
    assert state.M == 14
    assert all(w == pytest.approx(1.0 / 14) for w in state.weights)
    assert sum(state.weights) == pytest.approx(1.0, abs=1e-15)


def test_state_theta_modulo():
    pair = pair_for_index(DEFAULT_MODEL, 2)
    state = frequency_bin_state([pair], thetas=[2.0 * TWO_PI + 0.25])
    assert state.thetas[0] == pytest.approx(0.25, abs=1e-12)


def test_state_validation():
    pair = pair_for_index(DEFAULT_MODEL, 2)
    with pytest.raises(DomainError):
        frequency_bin_state([])
    with pytest.raises(DomainError):
        frequency_bin_state([pair], weights=[-1.0])
    with pytest.raises(DomainError):
        frequency_bin_state([pair], weights=[0.0])
    with pytest.raises(DomainError):
        frequency_bin_state([pair], thetas=[0.0, 1.0])


# ----------------------------------------------------------------- waveplates

def test_empty_stack_is_identity():
    u = compose_waveplates(WaveplateStack(()))
    np.testing.assert_allclose(u, np.eye(2), atol=1e-15)


def test_hwp_at_zero_is_sigma_z_up_to_phase():
    u = compose_waveplates(WaveplateStack((("half", 0.0),)))
    v = u / u[0, 0]
    np.testing.assert_allclose(v, np.diag([1.0, -1.0]), atol=1e-12)


def test_unit_determinant():
    rng = np.random.default_rng(8)
    for _ in range(200):
        u = compose_waveplates(random_stack(rng))
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_unitarity_random_stacks():
    rng = np.random.default_rng(17)
    for _ in range(500):
        u = compose_waveplates(random_stack(rng))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_invalid_plate_kind_rejected():
    with pytest.raises(DomainError):
        WaveplateStack((("third", 0.1),))


def test_phase_from_identity_stack():
    assert phase_from_stack(WaveplateStack(())) == 0.0


def test_phase_gate_rejects_mixing_stack():
    with pytest.raises(PhaseGateError):
        phase_from_stack(WaveplateStack((("quarter", 0.3),)))


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
def test_four_phase_settings(theta):
    stack = stack_for_phase(theta)
    assert phase_from_stack(stack) == pytest.approx(theta, abs=1e-9)


def test_calibration_grid_roundtrip():
    for theta in np.linspace(0.0, TWO_PI, 100, endpoint=False):
        realized = phase_from_stack(stack_for_phase(float(theta)))
        err = (realized - theta + math.pi) % TWO_PI - math.pi
        assert abs(err) < 1e-9


def test_calibration_matches_closed_form_oracle():
    # Brute-force Jones oracle: QWP(45) HWP(a) QWP(45) gives
    # theta = (pi + 4a) mod 2pi.  Composed from Jones matrices here, it is
    # an independent check of the closed form hwp_angle_for_phase inverts.
    for alpha in np.linspace(0.01, math.pi - 0.01, 25):
        stack = WaveplateStack((
            ("quarter", math.pi / 4), ("half", float(alpha)), ("quarter", math.pi / 4),
        ))
        expected = (math.pi + 4.0 * alpha) % TWO_PI
        err = (phase_from_stack(stack) - expected + math.pi) % TWO_PI - math.pi
        assert abs(err) < 1e-9


def test_hwp_angle_in_range():
    for theta in (0.0, 1.0, 3.0, 6.0):
        alpha = hwp_angle_for_phase(theta)
        assert 0.0 <= alpha <= math.pi


@pytest.mark.parametrize("degrees,alpha", [
    (0.0, math.pi / 4), (90.0, 3 * math.pi / 8),
    (180.0, math.pi / 2), (270.0, math.pi / 8),
])
def test_hwp_angle_branch(degrees, alpha):
    # The branch alpha in (0, pi/2] fixes fig4's reported hwp_angle_rad.
    assert abs(hwp_angle_for_phase(math.radians(degrees)) - alpha) <= math.ulp(alpha)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_hwp_angle_rejects_non_finite(theta):
    with pytest.raises(PhaseGateError):
        hwp_angle_for_phase(theta)


# ----------------------------------------------------------- density matrix

def test_pure_bell_projector():
    rho = restricted_density(0.5, 1.0, 0.0)
    eig = np.linalg.eigvalsh(rho.matrix())
    np.testing.assert_allclose(sorted(eig), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_reported_matrix_entries():
    rho = restricted_density(0.701, 0.7713, -0.1168).matrix()
    assert rho[1, 1].real == pytest.approx(0.701, abs=1e-12)
    assert rho[2, 2].real == pytest.approx(0.299, abs=1e-12)
    # Interior coherences; quoted to four figures in the source report.
    assert rho[1, 2].real == pytest.approx(0.3831, abs=1e-4)
    assert rho[2, 1].real == pytest.approx(0.3831, abs=1e-4)
    assert rho[1, 2].imag == pytest.approx(0.0450, abs=1e-4)
    assert rho[2, 1].imag == pytest.approx(-0.0450, abs=1e-4)
    # Exact closed-form values, frozen.
    assert rho[1, 2].real == pytest.approx(0.38565 * math.cos(0.1168), abs=1e-15)
    assert rho[1, 2].imag == pytest.approx(0.38565 * math.sin(0.1168), abs=1e-15)


def test_maximally_mixed_central_block():
    rho = restricted_density(0.5, 0.0, 1.234).matrix()
    np.testing.assert_allclose(rho[1:3, 1:3], 0.5 * np.eye(2), atol=1e-15)


def test_nonphysical_rejected_not_repaired():
    with pytest.raises(NonPhysicalStateError):
        restricted_density(0.9, 0.9, 0.0)
    with pytest.raises(NonPhysicalStateError):
        restricted_density(1.2, 0.1, 0.0)
    with pytest.raises(NonPhysicalStateError):
        restricted_density(0.5, -0.1, 0.0)


def test_boundary_is_physical():
    restricted_density(0.5, 1.0, 2.0)
    restricted_density(1.0, 0.0, 0.0)
    restricted_density(0.0, 0.0, 0.0)


@given(triple=physical_triples())
@settings(max_examples=200)
def test_physical_matrix_properties(triple):
    p, v, phi = triple
    rho = restricted_density(p, v, phi).matrix()
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


# -------------------------------------------------------------------fidelity

def test_fidelity_pure_bell():
    assert fidelity(restricted_density(0.5, 1.0, 0.0), 0.0) == pytest.approx(1.0)


def test_fidelity_reported_value():
    rho = restricted_density(0.701, 0.7713, -0.1168)
    assert fidelity(rho, 0.0) == pytest.approx(0.883022424278904, abs=1e-12)
    assert fidelity(rho, 0.0) == pytest.approx(0.8830, abs=5e-5)


@given(triple=physical_triples(), theta=st.floats(min_value=-7.0, max_value=7.0))
@settings(max_examples=200)
def test_fidelity_closed_form_equals_sandwich(triple, theta):
    rho = restricted_density(*triple)
    assert abs(fidelity(rho, theta) - fidelity_from_matrix(rho, theta)) < 1e-12


@given(triple=physical_triples(), theta=st.floats(min_value=-7.0, max_value=7.0))
@settings(max_examples=100)
def test_fidelity_antipodal_targets_sum_to_one(triple, theta):
    rho = restricted_density(*triple)
    assert fidelity(rho, theta) + fidelity(rho, theta + math.pi) \
        == pytest.approx(1.0, abs=1e-12)


def test_fidelity_independent_of_balance():
    values = {fidelity(restricted_density(p, 0.6, 0.3), 0.1)
              for p in (0.2, 0.5, 0.8)}
    assert len(values) == 1


# -------------------------------------------------------------------- report

def test_density_report_format():
    text = density_report(restricted_density(0.701, 0.7713, -0.1168))
    lines = text.splitlines()
    assert lines[0] == "# real part"
    assert lines[5] == "# imaginary part"
    assert len(lines) == 10
    real = np.array([[float(x) for x in row.split()] for row in lines[1:5]])
    imag = np.array([[float(x) for x in row.split()] for row in lines[6:10]])
    assert real[1, 1] == pytest.approx(0.701, abs=5e-7)
    assert imag[1, 2] == pytest.approx(0.044942, abs=5e-7)
    assert real.shape == imag.shape == (4, 4)
