"""Microring resonator spectral model.

Resonances sit on an exact grid pump + k*fsr.  All frequencies are stored as
integer hertz so grid arithmetic (line centers, pair detunings, the
signal+idler energy-conservation sum) is exact; floats enter only when a
Lorentzian lineshape is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ResonatorModel",
    "CombLine",
    "FrequencyPair",
    "thz",
    "ghz",
    "mhz",
    "resonance_lines",
    "transmission",
    "q_factor",
    "pair_for_index",
]


def thz(value: float) -> int:
    """Exact integer hertz from a value in THz."""
    return round(value * 1e12)


def ghz(value: float) -> int:
    """Exact integer hertz from a value in GHz."""
    return round(value * 1e9)


def mhz(value: float) -> int:
    """Exact integer hertz from a value in MHz."""
    return round(value * 1e6)


@dataclass(frozen=True)
class ResonatorModel:
    """Comb source: resonance grid plus a single shared linewidth.

    Parameters
    ----------
    pump_frequency : int
        Pump resonance center in Hz.
    fsr : int
        Free spectral range in Hz.
    fwhm : int
        Resonance full width at half maximum in Hz (constant across the
        comb; only an average linewidth is modeled).
    extinction : float
        On-resonance transmission dip depth in [0, 1].
    """

    pump_frequency: int
    fsr: int
    fwhm: int
    extinction: float

    def __post_init__(self):
        if self.pump_frequency <= 0:
            raise DomainError("pump_frequency must be positive")
        if self.fsr <= 0:
            raise DomainError("fsr must be positive")
        if self.fwhm <= 0:
            raise DomainError("fwhm must be positive")
        if self.fwhm >= self.fsr:
            raise DomainError("fwhm must be smaller than fsr (resolvable modes)")
        if not 0.0 <= self.extinction <= 1.0:
            raise DomainError("extinction must lie in [0, 1]")


@dataclass(frozen=True)
class CombLine:
    """One resonance: index k counts FSR offsets from the pump."""

    index: int
    center_frequency: int
    fwhm: int

    def __post_init__(self):
        if self.center_frequency <= 0:
            raise DomainError("center_frequency must be positive")
        if self.fwhm <= 0:
            raise DomainError("fwhm must be positive")


@dataclass(frozen=True)
class FrequencyPair:
    """Signal/idler line pair m FSRs below/above the pump."""

    m: int
    signal: CombLine
    idler: CombLine

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("pair index m must be >= 1")
        if self.signal.index != -self.m or self.idler.index != self.m:
            raise DomainError("pair lines must sit at k = -m and k = +m")

    @property
    def detuning(self) -> int:
        """Idler minus signal center frequency in Hz (= 2*m*fsr)."""
        return self.idler.center_frequency - self.signal.center_frequency


def resonance_lines(model: ResonatorModel, band: tuple[float, float]) -> list[CombLine]:
    """All comb lines whose centers lie in the closed band, ascending.

    band is a (low, high) pair in Hz.
    """
    lo, hi = band
    if not lo < hi:
        raise DomainError("band lower bound must be below upper bound")
    if lo <= 0:
        raise DomainError("band bounds must be positive")
    k_min = math.ceil((lo - model.pump_frequency) / model.fsr)
    k_max = math.floor((hi - model.pump_frequency) / model.fsr)
    lines = []
    for k in range(k_min, k_max + 1):
        center = model.pump_frequency + k * model.fsr
        if lo <= center <= hi:
            lines.append(CombLine(k, center, model.fwhm))
    return lines


def transmission(model: ResonatorModel, f):
    """Transmittance at frequency f (Hz, scalar or array).

    Nearest-resonance single-Lorentzian dip: T = 1 - extinction * L where L
    has unit peak and FWHM model.fwhm.  Valid because fwhm << fsr.
    """
    f = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(f) & (f > 0)):
        raise DomainError("frequency must be finite and positive")
    k = np.rint((f - model.pump_frequency) / model.fsr)
    delta = f - (model.pump_frequency + k * model.fsr)
    lorentz = 1.0 / (1.0 + (2.0 * delta / model.fwhm) ** 2)
    t = 1.0 - model.extinction * lorentz
    return t if t.shape else float(t)


def q_factor(center: float, fwhm: float) -> float:
    """Quality factor center/fwhm."""
    if center <= 0 or fwhm <= 0:
        raise DomainError("center and fwhm must be positive")
    return center / fwhm


def pair_for_index(model: ResonatorModel, m: int) -> FrequencyPair:
    """Signal at pump - m*fsr, idler at pump + m*fsr.

    m = 0 (degenerate pair at the pump) is out of scope and rejected.
    """
    if m == 0:
        raise DomainError("m = 0 is the degenerate pair at the pump; not modeled")
    if m < 1:
        raise DomainError("pair index m must be >= 1")
    signal = CombLine(-m, model.pump_frequency - m * model.fsr, model.fwhm)
    idler = CombLine(m, model.pump_frequency + m * model.fsr, model.fwhm)
    return FrequencyPair(m, signal, idler)
