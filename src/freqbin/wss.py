"""Wavelength-selective switch: programmable rectangular passband bank.

Routing is a discrete decision on line centers; flux capture for scans is
continuous, integrating the Lorentzian lineshape over the passband.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .comb import CombLine, ResonatorModel, pair_for_index, resonance_lines
from .errors import ConfigurationError, DomainError
from .rng import STREAM_SCAN, CounterRng

__all__ = [
    "Passband",
    "FilterProgram",
    "route_lines",
    "select_pairs",
    "singles_spectrum_scan",
    "captured_fraction",
]

DEFAULT_CHANNEL_WIDTH = 20_000_000_000  # 20 GHz in Hz

# Lines farther than this many linewidths from a passband edge contribute
# nothing: the neglected Lorentzian tail is ~0.3% and the cutoff makes
# "passband touching no line" give exactly zero flux.
_CAPTURE_CUTOFF_LINEWIDTHS = 100


@dataclass(frozen=True)
class Passband:
    """Ideal rectangular filter channel; frequencies in integer Hz."""

    center: int
    width: int
    output_port: int

    def __post_init__(self):
        if self.width <= 0:
            raise DomainError("passband width must be positive")
        if self.center <= 0:
            raise DomainError("passband center must be positive")

    @property
    def low(self) -> int:
        return self.center - self.width // 2

    @property
    def high(self) -> int:
        return self.low + self.width

    def contains(self, f: float) -> bool:
        """Half-open membership [low, high) so touching bands never overlap."""
        return self.low <= f < self.high


@dataclass(frozen=True)
class FilterProgram:
    """A set of non-overlapping passbands; a frequency maps to <= 1 port."""

    passbands: tuple[Passband, ...]

    def __post_init__(self):
        bands = sorted(self.passbands, key=lambda b: b.low)
        for a, b in zip(bands, bands[1:]):
            if b.low < a.high:
                raise ConfigurationError(
                    f"passbands overlap near {a.high / 1e12:.6f} THz"
                )
        object.__setattr__(self, "passbands", tuple(bands))


def route_lines(program: FilterProgram, lines: list[CombLine]) -> dict[int, list[CombLine]]:
    """Map output port -> lines whose centers fall in that port's passbands.

    Lines matching no passband are dropped.
    """
    routed: dict[int, list[CombLine]] = {}
    for line in lines:
        for band in program.passbands:
            if band.contains(line.center_frequency):
                routed.setdefault(band.output_port, []).append(line)
                break
    for port in routed:
        routed[port].sort(key=lambda ln: ln.center_frequency)
    return routed


def select_pairs(
    model: ResonatorModel,
    pair_indices,
    width: int = DEFAULT_CHANNEL_WIDTH,
) -> FilterProgram:
    """Two-port program passing the given pairs: signals on 1, idlers on 2.

    One channel of the given width per line; channels that touch or overlap
    within a port are merged into a single contiguous passband.
    """
    indices = sorted(set(int(m) for m in pair_indices))
    if not indices:
        raise DomainError("pair_indices must be non-empty")
    bands = []
    for port, sign in ((1, -1), (2, +1)):
        edges = []
        for m in indices:
            pair = pair_for_index(model, m)
            line = pair.signal if sign < 0 else pair.idler
            lo = line.center_frequency - width // 2
            edges.append((lo, lo + width))
        edges.sort()
        merged = [list(edges[0])]
        for lo, hi in edges[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        for lo, hi in merged:
            bands.append(Passband((lo + hi) // 2, hi - lo, port))
    return FilterProgram(tuple(bands))


def captured_fraction(line: CombLine, low: float, high: float) -> float:
    """Fraction of the line's Lorentzian power inside [low, high].

    Closed form: (1/pi)[atan(2(high-c)/fwhm) - atan(2(low-c)/fwhm)].
    Returns exactly 0 when the band is farther from the line center than
    100 linewidths (tail below ~0.3%).
    """
    if high <= low:
        return 0.0
    c = line.center_frequency
    w = line.fwhm
    if low - c > _CAPTURE_CUTOFF_LINEWIDTHS * w or c - high > _CAPTURE_CUTOFF_LINEWIDTHS * w:
        return 0.0
    return (math.atan(2.0 * (high - c) / w) - math.atan(2.0 * (low - c) / w)) / math.pi


def singles_spectrum_scan(
    model: ResonatorModel,
    band: tuple[float, float],
    step: int,
    width: int,
    line_flux: float,
    dark_rate: float,
    dwell: float,
    seed: int,
) -> list[tuple[int, int]]:
    """Sweep a single passband across the band and count singles.

    At each scan center the mean count is dwell * (dark_rate + line_flux *
    captured fraction summed over comb lines); counts are Poisson sampled
    with a counter-based generator keyed by (seed, scan index), so the
    result is independent of evaluation order.

    Returns a list of (center frequency Hz, counts).
    """
    lo, hi = band
    if not lo < hi:
        raise DomainError("band lower bound must be below upper bound")
    if step <= 0 or width <= 0 or dwell <= 0:
        raise DomainError("step, width, and dwell must be positive")
    if line_flux < 0 or dark_rate < 0:
        raise DomainError("rates must be non-negative")

    margin = _CAPTURE_CUTOFF_LINEWIDTHS * model.fwhm + width
    lines = resonance_lines(model, (max(lo - margin, 1), hi + margin))

    centers = []
    c = int(lo)
    while c <= hi:
        centers.append(c)
        c += int(step)

    rng = CounterRng(seed, STREAM_SCAN)
    means = []
    for center in centers:
        blo = center - width // 2
        bhi = blo + width
        capture = sum(captured_fraction(line, blo, bhi) for line in lines)
        means.append(dwell * (dark_rate + line_flux * capture))
    counts = rng.poisson(means, counter=range(len(centers)))
    return [(center, int(n)) for center, n in zip(centers, counts)]
