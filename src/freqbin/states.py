"""Frequency-bin states, waveplate phase control, restricted density matrix.

The two-photon Hilbert space is restricted to the four-dimensional basis
{|ss>, |si>, |is>, |ii>} of one signal/idler bin pair; the density matrix
populates only the central |si>, |is> block, parameterized by the balance p,
visibility V, and beat phase phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comb import FrequencyPair
from .errors import DomainError, NonPhysicalStateError, PhaseGateError

__all__ = [
    "FrequencyBinState",
    "WaveplateStack",
    "RestrictedDensityMatrix",
    "frequency_bin_state",
    "compose_waveplates",
    "phase_from_stack",
    "stack_for_phase",
    "hwp_angle_for_phase",
    "restricted_density",
    "fidelity",
    "fidelity_from_matrix",
    "density_report",
]

TWO_PI = 2.0 * math.pi

_PHYSICALITY_TOL = 1e-12


@dataclass(frozen=True)
class FrequencyBinState:
    """Normalized superposition over signal/idler bin pairs.

    Each entry couples a pair to a probability weight and a relative phase
    theta between its |si> and |is> components; weights sum to one.
    """

    pairs: tuple[FrequencyPair, ...]
    weights: tuple[float, ...]
    thetas: tuple[float, ...]

    def __post_init__(self):
        if not self.pairs:
            raise DomainError("state needs at least one frequency pair")
        if not (len(self.pairs) == len(self.weights) == len(self.thetas)):
            raise DomainError("pairs, weights, thetas must have equal length")
        if any(w < 0 for w in self.weights):
            raise DomainError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")

    @property
    def M(self) -> int:
        return len(self.pairs)


def frequency_bin_state(pairs, thetas=None, weights=None) -> FrequencyBinState:
    """Build a normalized state; weights default to equal, thetas to zero.

    Weights are auto-normalized (they must be non-negative with a positive
    sum); thetas are reduced modulo 2*pi.  The single-pair case with theta
    is the usual (|si> + e^{i theta}|is>)/sqrt(2) beat state.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise DomainError("state needs at least one frequency pair")
    n = len(pairs)
    if thetas is None:
        thetas = (0.0,) * n
    if weights is None:
        weights = (1.0,) * n
    thetas = tuple(float(t) % TWO_PI for t in thetas)
    weights = tuple(float(w) for w in weights)
    if len(thetas) != n or len(weights) != n:
        raise DomainError("pairs, weights, thetas must have equal length")
    if any(w < 0 for w in weights):
        raise DomainError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise DomainError("weights must have positive sum")
    weights = tuple(w / total for w in weights)
    return FrequencyBinState(pairs, weights, thetas)


@dataclass(frozen=True)
class WaveplateStack:
    """Ordered retarders, listed in the order light traverses them."""

    elements: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for kind, _ in self.elements:
            if kind not in ("quarter", "half"):
                raise DomainError(f"unknown waveplate kind {kind!r}")


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def _retarder(delta: float, angle: float) -> np.ndarray:
    """Jones matrix of a retarder with fast axis at the given angle.

    Retardance delta is split symmetrically: diag(e^{-i delta/2},
    e^{+i delta/2}) in the fast-axis frame, so det = 1 exactly.
    """
    core = np.diag([np.exp(-0.5j * delta), np.exp(+0.5j * delta)])
    return _rotation(-angle) @ core @ _rotation(angle)


_RETARDANCE = {"quarter": math.pi / 2.0, "half": math.pi}


def compose_waveplates(stack: WaveplateStack) -> np.ndarray:
    """2x2 unitary of the whole stack (first-listed element acts first)."""
    u = np.eye(2, dtype=complex)
    for kind, angle in stack.elements:
        u = _retarder(_RETARDANCE[kind], angle) @ u
    return u


def phase_from_stack(stack: WaveplateStack, tol: float = 1e-9) -> float:
    """Extract theta from a stack acting as a pure relative-phase gate.

    The composed matrix must be diagonal up to global phase within tol;
    returns arg(U11/U00) in [0, 2*pi).
    """
    u = compose_waveplates(stack)
    off = max(abs(u[0, 1]), abs(u[1, 0]))
    if off > tol:
        raise PhaseGateError(
            f"stack is not a pure phase gate (off-diagonal magnitude {off:.3e})"
        )
    theta = float(np.angle(u[1, 1] / u[0, 0])) % TWO_PI
    # Snap values within tol of 2*pi back to 0 for a stable principal range.
    if TWO_PI - theta < tol:
        theta = 0.0
    return theta


def hwp_angle_for_phase(theta: float) -> float:
    """Half-wave-plate angle alpha realizing relative phase theta.

    For QWP(45) HWP(alpha) QWP(45) the phase is theta = 4 alpha + pi
    (mod 2 pi), so alpha = pi/2 - ((pi - theta) mod 2 pi)/4, on the branch
    alpha in (0, pi/2].  `phase_from_stack` on `stack_for_phase(theta)` is
    the independent Jones-matrix check of this closed form.
    """
    if not math.isfinite(theta):
        raise PhaseGateError(f"phase must be finite, got {theta!r}")
    return 0.5 * math.pi - ((math.pi - float(theta)) % TWO_PI) / 4.0


def stack_for_phase(theta: float) -> WaveplateStack:
    """QWP(45) HWP(alpha) QWP(45) stack realizing relative phase theta."""
    alpha = hwp_angle_for_phase(theta)
    return WaveplateStack(
        (("quarter", math.pi / 4), ("half", alpha), ("quarter", math.pi / 4))
    )


@dataclass(frozen=True)
class RestrictedDensityMatrix:
    """4x4 state with only the central |si>, |is> block populated."""

    p: float
    V: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise NonPhysicalStateError("balance p must lie in [0, 1]")
        if not 0.0 <= self.V <= 1.0:
            raise NonPhysicalStateError("visibility V must lie in [0, 1]")
        if (self.p - 0.5) ** 2 + self.V**2 / 4.0 > 0.25 + _PHYSICALITY_TOL:
            raise NonPhysicalStateError(
                "(p - 1/2)^2 + V^2/4 <= 1/4 violated: state not positive"
            )

    def matrix(self) -> np.ndarray:
        """The 4x4 complex matrix in basis {|ss>, |si>, |is>, |ii>}."""
        rho = np.zeros((4, 4), dtype=complex)
        coh = 0.5 * self.V * np.exp(-1j * self.phi)
        rho[1, 1] = self.p
        rho[1, 2] = coh
        rho[2, 1] = np.conj(coh)
        rho[2, 2] = 1.0 - self.p
        return rho


def restricted_density(p: float, V: float, phi: float) -> RestrictedDensityMatrix:
    """Validated restricted density matrix; non-physical triples raise."""
    return RestrictedDensityMatrix(float(p), float(V), float(phi))


def fidelity(rho: RestrictedDensityMatrix, theta_target: float = 0.0) -> float:
    """Overlap with |psi_t> = (|si> + e^{i theta_t}|is>)/sqrt(2).

    Closed form 1/2 + (V/2) cos(phi - theta_t); independent of p.
    """
    return 0.5 + 0.5 * rho.V * math.cos(rho.phi - theta_target)


def fidelity_from_matrix(rho: RestrictedDensityMatrix, theta_target: float = 0.0) -> float:
    """Same overlap evaluated as the explicit vector-matrix-vector sandwich."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = np.exp(1j * theta_target) / math.sqrt(2.0)
    return float(np.real(np.conj(psi) @ rho.matrix() @ psi))


def density_report(rho: RestrictedDensityMatrix) -> str:
    """Two 4x4 blocks (real then imaginary), row-major, 6 decimals."""
    m = rho.matrix()
    lines = ["# real part"]
    for row in m.real:
        lines.append(" ".join(f"{x: .6f}" for x in row))
    lines.append("# imaginary part")
    for row in m.imag:
        lines.append(" ".join(f"{x: .6f}" for x in row))
    return "\n".join(lines) + "\n"
