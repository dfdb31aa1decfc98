"""Waveplate phase control and the restricted density matrix.

The two-photon Hilbert space is restricted to the four-dimensional basis
{|ss>, |si>, |is>, |ii>} of one signal/idler bin pair; the density matrix
populates only the central |si>, |is> block, parameterized by the balance p,
visibility V, and beat phase phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPhysicalStateError, PhaseGateError

__all__ = [
    "WaveplateStack",
    "RestrictedDensityMatrix",
    "compose_waveplates",
    "phase_from_stack",
    "stack_for_phase",
    "hwp_angle_for_phase",
    "restricted_density",
    "fidelity",
    "density_report",
]

TWO_PI = 2.0 * math.pi

_PHYSICALITY_TOL = 1e-12
# A phase gate's largest off-diagonal magnitude, and its phase's snap to 0 below 2*pi.
_PHASE_TOL = 1e-9


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


def phase_from_stack(stack: WaveplateStack) -> float:
    """Extract theta from a stack acting as a pure relative-phase gate.

    The composed matrix must be diagonal up to global phase within
    _PHASE_TOL; returns arg(U11/U00) in [0, 2*pi).
    """
    u = compose_waveplates(stack)
    off = max(abs(u[0, 1]), abs(u[1, 0]))
    if off > _PHASE_TOL:
        raise PhaseGateError(
            f"stack is not a pure phase gate (off-diagonal magnitude {off:.3e})"
        )
    theta = float(np.angle(u[1, 1] / u[0, 0])) % TWO_PI
    # Snap values within _PHASE_TOL of 2*pi back to 0 for a stable principal range.
    if TWO_PI - theta < _PHASE_TOL:
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
