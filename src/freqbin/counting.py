"""Monte Carlo photon counting on top of the fringe models.

Counts are aggregated per scan point (no time tags); every draw comes from
the counter-based generator keyed by (seed, point index), so simulations are
reproducible and independent of evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hom import FringeModel, hom_multi
from .rng import STREAM_BASIS, STREAM_FRINGE, CounterRng

__all__ = [
    "DetectorModel",
    "ScanConfig",
    "FringeDataset",
    "simulate_fringe",
    "accidental_rate",
    "computational_basis_counts",
    "load_dataset",
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
    """Delay scan: [tau_start, tau_stop] stepped by tau_step, dwell per point."""

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

    def grid(self) -> np.ndarray:
        """Scan delays; the canonical grid every dataset reproduces exactly."""
        n = int(math.floor((self.tau_stop - self.tau_start) / self.tau_step + 0.5)) + 1
        return self.tau_start + self.tau_step * np.arange(n)


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
        """Write `delay_ps,counts` rows under `# key=value` metadata lines."""
        with open(path, "w") as fh:
            fh.write(f"# dwell_s={self.dwell!r}\n")
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write("delay_ps,counts\n")
            for tau, n in zip(self.taus, self.counts):
                fh.write(f"{float(tau) * 1e12!r},{int(n)}\n")


def load_dataset(path) -> FringeDataset:
    """Read a dataset CSV produced by FringeDataset.to_csv (or compatible)."""
    metadata: dict = {}
    dwell = None
    taus: list[float] = []
    counts: list[int] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    if key.strip() == "dwell_s":
                        dwell = float(value)
                    else:
                        metadata[key.strip()] = value.strip()
                continue
            if line.startswith("delay_ps"):
                continue
            tau_ps, n = line.split(",")
            taus.append(float(tau_ps) * 1e-12)
            counts.append(int(n))
    if dwell is None:
        raise DomainError(f"{path}: missing '# dwell_s=' header")
    return FringeDataset(np.array(taus), np.array(counts), dwell, metadata)


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
