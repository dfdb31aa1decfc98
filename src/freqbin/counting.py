"""Monte Carlo photon counting on top of the fringe models.

Counts are aggregated per scan point (no time tags); every draw comes from
the counter-based generator keyed by (seed, point index), so simulations are
reproducible and independent of evaluation order or thread count.

A dataset's CSV holds `# key=value` header lines, a `delay_ps,counts` line
and one row per point.  A simulated dataset's headers include the grid's
`tau_start_s` and `tau_step_s`, from which `load_dataset` rebuilds the
delays bit for bit; the picosecond column alone can come back 1 ulp off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hom import FringeModel, hom_multi
from .rng import STREAM_BASIS, STREAM_FRINGE, CounterRng

# Most points a scan grid holds, so a tiny step is an error, not a huge allocation.
MAX_SCAN_POINTS = 1_000_000
# Rows formatted per write: whole blocks are fast, and one block of row
# strings at a time keeps a large scan from holding every row in memory.
_WRITE_BLOCK = 1 << 14
# One CSV row as np.loadtxt parses it: the delay in ps and an exact count.
_ROW = np.dtype([("t", "f8"), ("n", "i8")])

__all__ = [
    "MAX_SCAN_POINTS",
    "DetectorModel",
    "ScanConfig",
    "FringeDataset",
    "simulate_fringe",
    "accidental_rate",
    "computational_basis_counts",
    "load_dataset",
    "write_rows",
]


@dataclass(frozen=True)
class DetectorModel:
    """Detection chain: lumped efficiencies, dark rate, coincidence window.

    Efficiencies absorb all optical losses in front of each detector.
    """

    efficiency_signal: float = 0.5
    efficiency_idler: float = 0.5
    dark_rate: float = 100.0
    coincidence_window: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.efficiency_signal <= 1.0:
            raise DomainError("efficiency_signal must lie in [0, 1]")
        if not 0.0 <= self.efficiency_idler <= 1.0:
            raise DomainError("efficiency_idler must lie in [0, 1]")
        if self.dark_rate < 0:
            raise DomainError("dark_rate must be non-negative")
        if not self.coincidence_window > 0:
            raise DomainError("coincidence_window must be positive")


@dataclass(frozen=True)
class ScanConfig:
    """Delay scan: [tau_start, tau_stop] stepped by tau_step, dwell per point;
    at most MAX_SCAN_POINTS points, and a step above the delays' rounding."""

    tau_start: float
    tau_stop: float
    tau_step: float
    dwell: float

    def __post_init__(self):
        if not self.tau_step > 0:
            raise DomainError("tau_step must be positive")
        if not self.tau_stop > self.tau_start:
            raise DomainError("tau_stop must exceed tau_start")
        if not self.dwell > 0:
            raise DomainError("dwell must be positive")
        if not self._steps() < MAX_SCAN_POINTS:
            raise DomainError(f"the scan grid would exceed {MAX_SCAN_POINTS:,} points")
        if not self.tau_step > 2.0 * np.spacing(max(abs(self.tau_start), abs(self.tau_stop))):
            raise DomainError("tau_step is below the rounding of the delays")

    def _steps(self) -> float:
        return (self.tau_stop - self.tau_start) / self.tau_step + 0.5

    def __len__(self) -> int:
        return math.floor(self._steps()) + 1

    def grid(self) -> np.ndarray:
        """Scan delays; the canonical grid every dataset reproduces exactly."""
        return _delay_grid(self.tau_start, self.tau_step, len(self))


def _delay_grid(start: float, step: float, n: int) -> np.ndarray:
    """The n delays start + step * i: a scan's grid, also as rebuilt from a CSV."""
    return start + step * np.arange(n)


@dataclass(frozen=True, eq=False)
class FringeDataset:
    """Delay-scan count record plus acquisition metadata."""

    taus: np.ndarray
    counts: np.ndarray
    dwell: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if taus.ndim != 1 or counts.ndim != 1 or taus.size != counts.size:
            raise DomainError("taus and counts must be 1-d arrays of equal length")
        if not np.all(np.isfinite(taus)):
            raise DomainError("taus must be finite")
        if taus.size and np.any(np.diff(taus) <= 0):
            raise DomainError("taus must be strictly increasing")
        if np.any(counts < 0):
            raise DomainError("counts must be non-negative")
        if not self.dwell > 0:
            raise DomainError("dwell must be positive")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.taus.size)

    def to_csv(self, path) -> None:
        """Write `# dwell_s=` and one `# key=value` line per metadata entry
        (sorted by key), a `delay_ps,counts` line, then one row per point:
        the delay in ps as its shortest round-trip repr, and the count."""
        with open(path, "w") as fh:
            fh.write(f"# dwell_s={self.dwell!r}\n")
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write("delay_ps,counts\n")
            write_rows(fh, self.taus * 1e12, self.counts)


def write_rows(fh, first: np.ndarray, second: np.ndarray) -> None:
    """Write one `first,second` line per element pair, each value as the repr
    of its Python float or int, formatting _WRITE_BLOCK rows per write."""
    for i in range(0, len(first), _WRITE_BLOCK):
        j = i + _WRITE_BLOCK
        fh.write("".join([f"{a!r},{b!r}\n"
                          for a, b in zip(first[i:j].tolist(), second[i:j].tolist())]))


def load_dataset(path) -> FringeDataset:
    """Read a dataset CSV produced by FringeDataset.to_csv (or compatible).

    `#` lines before the rows are `key=value` headers, of which `dwell_s`
    is required; blank lines, a `delay_ps` line and `#` comments are
    skipped.  With `tau_start_s` and `tau_step_s` headers the delays are
    that grid, exactly as ScanConfig.grid builds it; otherwise they are the
    ps column times 1e-12.  A malformed row, a missing or bad header, or a
    delay column more than 1 ulp off its header grid raises DomainError
    naming the file.
    """
    try:
        with open(path) as fh:
            metadata, rows = _read_csv(fh)
        if "dwell_s" not in metadata:
            raise DomainError("missing '# dwell_s=' header")
        dwell = float(metadata.pop("dwell_s"))
        taus = rows["t"] * 1e-12
        if "tau_start_s" in metadata and "tau_step_s" in metadata:
            grid = _delay_grid(float(metadata["tau_start_s"]),
                               float(metadata["tau_step_s"]), taus.size)
            if not np.all(np.abs(taus - grid) <= np.spacing(np.abs(grid))):
                raise DomainError("delays disagree with the tau_start_s and "
                                  "tau_step_s headers by more than 1 ulp")
            taus = grid
        return FringeDataset(taus, rows["n"], dwell, metadata)
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _read_csv(fh) -> tuple[dict, np.ndarray]:
    """The `# key=value` headers and the rows of an open dataset CSV."""
    metadata = {}
    start = fh.tell()
    for line in iter(fh.readline, ""):
        text = line.strip()
        if text.startswith("#"):
            key, sep, value = text[1:].partition("=")
            if sep:
                metadata[key.strip()] = value.strip()
        elif text and not text.startswith("delay_ps"):
            fh.seek(start)
            return metadata, np.loadtxt(fh, delimiter=",", comments="#", dtype=_ROW, ndmin=1)
        start = fh.tell()
    # No rows: skip np.loadtxt, which warns on empty input.
    return metadata, np.zeros(0, dtype=_ROW)


def simulate_fringe(
    fringe: FringeModel,
    scan: ScanConfig,
    det: DetectorModel,
    pair_rate: float,
    seed: int,
    accidental: float = 0.0,
    workers: int = 1,
) -> FringeDataset:
    """Poisson-sample a coincidence scan of the fringe model.

    Per point, mean = dwell * (pair_rate * eta_s * eta_i * p(tau) +
    accidental), with accidental an additive coincidence rate in counts/s.
    The draw for point i uses counter i of (seed, fringe stream).  workers
    is accepted and ignored: the output is the same for any value.
    """
    if pair_rate < 0:
        raise DomainError("pair_rate must be non-negative")
    if accidental < 0:
        raise DomainError("accidental rate must be non-negative")
    taus = scan.grid()
    eta = det.efficiency_signal * det.efficiency_idler
    rng = CounterRng(seed, STREAM_FRINGE)
    means = scan.dwell * (pair_rate * eta * hom_multi(fringe, taus) + accidental)
    counts = rng.poisson(means, counter=np.arange(taus.size))

    detunings = ",".join(repr(float(d)) for d, _, _ in fringe.pairs)
    metadata = {
        "seed": seed,
        "pair_rate_hz": repr(float(pair_rate)),
        "accidental_hz": repr(float(accidental)),
        "efficiency_signal": repr(det.efficiency_signal),
        "efficiency_idler": repr(det.efficiency_idler),
        "detunings_hz": detunings,
        "sigma_rad_s": repr(fringe.envelope.sigma),
        "tau_start_s": repr(float(scan.tau_start)),
        "tau_step_s": repr(float(scan.tau_step)),
    }
    return FringeDataset(taus, counts, scan.dwell, metadata)


def accidental_rate(singles_signal: float, singles_idler: float, window: float) -> float:
    """Accidental coincidence rate S_s * S_i * window.

    For multiplexed acquisition the caller passes channel-summed singles,
    so cross-pair combinations enter the product automatically.
    """
    if singles_signal < 0 or singles_idler < 0:
        raise DomainError("singles rates must be non-negative")
    if window < 0:
        raise DomainError("window must be non-negative")
    return singles_signal * singles_idler * window


def computational_basis_counts(
    p: float, total_rate: float, dwell: float, seed: int
) -> tuple[int, int]:
    """Poisson counts (n_si, n_is) with means total*p and total*(1-p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("balance p must lie in [0, 1]")
    if total_rate < 0:
        raise DomainError("total_rate must be non-negative")
    if dwell < 0:
        raise DomainError("dwell must be non-negative")
    rng = CounterRng(seed, STREAM_BASIS)
    means = [total_rate * dwell * p, total_rate * dwell * (1.0 - p)]
    draws = rng.poisson(means, counter=[0, 1])
    return int(draws[0]), int(draws[1])
