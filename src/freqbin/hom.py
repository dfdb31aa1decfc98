"""Closed-form Hong-Ou-Mandel coincidence models.

A signal/idler pair detuned by delta nu beats at cos(2 pi delta nu tau)
inside an envelope set by the Lorentzian linewidth; multiplexing several
pairs averages their fringes, and uncorrelated accidentals raise the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Envelope",
    "FringeModel",
    "envelope_value",
    "hom_multi",
    "revival_period",
    "central_dip_fwhm",
]

# Argument clip for exp(); exact for every representable envelope value.
_EXP_CLIP = 700.0

# Brent's relative tolerance (4 machine epsilons) and iteration cap.
_BRENT_RTOL = 4.0 * 2.0**-52
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class Envelope:
    """Two-photon coherence envelope of a Lorentzian line.

    sigma is the angular linewidth in rad/s (2*pi times the fwhm in Hz).
    """

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError("sigma must be positive")

    @classmethod
    def from_fwhm(cls, fwhm_hz: float) -> "Envelope":
        return cls(2.0 * math.pi * float(fwhm_hz))


@dataclass(frozen=True)
class FringeModel:
    """Fringe parameters: per-pair (detuning Hz, V, phi), shared tau0/alpha.

    alpha is the accidental-coincidence fraction mixing a flat floor into
    the fringe: p -> (1 - alpha) p + alpha/2.
    """

    pairs: tuple[tuple[float, float, float], ...]
    tau0: float
    alpha: float
    envelope: Envelope

    def __post_init__(self):
        if not self.pairs:
            raise DomainError("fringe model needs at least one pair")
        for detuning, visibility, _ in self.pairs:
            if detuning <= 0:
                raise DomainError("pair detuning must be positive")
            if not 0.0 <= visibility <= 1.0:
                raise DomainError("pair visibility must lie in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError("accidental fraction alpha must lie in [0, 1]")


def envelope_value(env: Envelope, tau):
    """E(tau) = (1 + sigma|tau|) exp(-sigma|tau|), normalized to E(0) = 1.

    This is the Fourier transform of the squared Lorentzian lineshape.
    """
    x = np.minimum(env.sigma * np.abs(np.asarray(tau, dtype=np.float64)), _EXP_CLIP)
    e = (1.0 + x) * np.exp(-x)
    return e if e.shape else float(e)


def _beat_average(model: FringeModel, tau):
    """Mean over pairs of V_m cos(2 pi dnu_m (tau - tau0) + phi_m) E."""
    tau = np.asarray(tau, dtype=np.float64)
    t = tau - model.tau0
    e = envelope_value(model.envelope, t)
    acc = np.zeros_like(t)
    for detuning, visibility, phi in model.pairs:
        acc = acc + visibility * np.cos(2.0 * math.pi * detuning * t + phi)
    return acc / len(model.pairs) * e


def hom_multi(model: FringeModel, tau):
    """Multiplexed coincidence probability: mean of the per-pair fringes.

    p(tau) = (1 - alpha) (1/M) sum_m 1/2 [1 - V_m cos(2 pi dnu_m
    (tau - tau0) + phi_m) E] + alpha/2; reduces to the single-pair law at
    M = 1.  Result clamped to [0, 1].
    """
    p = 0.5 * (1.0 - _beat_average(model, tau))
    p = np.clip((1.0 - model.alpha) * p + 0.5 * model.alpha, 0.0, 1.0)
    return p if p.shape else float(p)


def revival_period(fsr: float) -> float:
    """Multiplexed-dip recurrence period 1/(2 fsr) in seconds."""
    if not fsr > 0:
        raise DomainError("fsr must be positive")
    return 1.0 / (2.0 * fsr)


def central_dip_fwhm(model: FringeModel) -> float:
    """Full width at half depth of the dip at tau0.

    Half depth is measured between the dip value and the 1/2 baseline.
    The half-crossing on each side is located on a dense grid out to two
    periods of the fastest beat and polished with Brent's method (`_brentq`).
    """
    v0 = float(hom_multi(model, model.tau0))
    baseline = 0.5
    if abs(baseline - v0) < 1e-12:
        raise DomainError("model has no central dip")
    half = 0.5 * (v0 + baseline)
    reach = 2.0 / max(d for d, _, _ in model.pairs)

    def height(t):
        return hom_multi(model, model.tau0 + t) - half

    widths = []
    for sign in (+1.0, -1.0):
        grid = sign * np.linspace(0.0, reach, 4001)[1:]
        vals = height(grid)
        crossing = np.nonzero(np.sign(vals) != np.sign(v0 - half))[0]
        if crossing.size == 0:
            raise DomainError("no half-depth crossing within the search span")
        i = int(crossing[0])
        lo = grid[i - 1] if i > 0 else 0.0
        root = _brentq(height, min(lo, grid[i]), max(lo, grid[i]), xtol=1e-18)
        widths.append(abs(root))
    return float(widths[0] + widths[1])


def _brentq(f, xa, xb, xtol):
    """Root of f in [xa, xb], where f changes sign, by Brent's method.

    A statement-for-statement port of the widely used C `brentq` (Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 4), with
    rtol = 4 eps and 100 iterations: the same bracket swaps, the same
    interpolate, extrapolate and bisect rules, and a stop once half the
    bracket is below delta = (xtol + rtol |x|)/2, so it returns the same
    double after the same calls of f (test_hom.py checks this against the C
    code).  DomainError if f(xa) and f(xb) have the same sign or the
    iterations run out.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("root bracket ends have the same sign")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise DomainError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")
