"""Monte Carlo photon counting on top of the fringe models.

Counts are aggregated per scan point (no time tags); every draw comes from
the counter-based generator keyed by (seed, point index), so simulations are
reproducible and independent of evaluation order or thread count.

A scan is simulated, written and checked on load one block of _BLOCK
points at a time, so apart from the delays and counts it holds, its
working memory does not grow with its length.

A dataset's CSV holds `# key=value` header lines, a `delay_ps,counts` line
and one row per point.  A simulated dataset's headers include the grid's
`tau_start_s` and `tau_step_s`, from which `load_dataset` rebuilds the
delays bit for bit; the picosecond column alone can come back 1 ulp off.
Each row of every CSV the package writes, the transmission sweep's
included, holds the repr of its values, so every file reloads bit for bit.
`write_rows` writes these rows.  It formats every block of at least 1,024
rows with numpy, exactly: Dekker's product gives each value's exact
decimal digits, from which repr's choice of 15, 16 or 17 digits is made.
It hands the few values outside that method to repr itself; the bytes are
those of the per-row comprehension, which writes shorter blocks.
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
# Points per block: the means and draws of a simulation, the rows of a
# write and the header-grid check of a load.  One block at a time keeps a
# large scan from holding its temporaries or every row's text in memory.
_BLOCK = 1 << 14
# Fewest rows numpy formats; shorter blocks go through the per-row
# comprehension.  Comprehension against kernel with an int / a float second
# column (2 CPUs, Python 3.11, numpy 2.4), on the delays of fig3's window:
# 161 rows 105 / 176 against 215 / 373 us, 1,201 rows 771 / 1,291 against
# 378 / 658 us.  On fig2's coarse grid (0.0, 2.0, ...: short reprs),
# 1,201 rows take 408 / 946 against 436 / 701 us.
_KERNEL_ROWS = 1024
# One CSV row as np.loadtxt parses it: the delay in ps and an exact count.
_ROW = np.dtype([("t", "f8"), ("n", "i8")])
# 10**0 to 10**22: the powers of ten a float64 holds exactly.
_POW10 = np.array([10**k for k in range(23)], dtype=np.float64)

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

    efficiency_signal: float
    efficiency_idler: float
    dark_rate: float
    coincidence_window: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency_signal <= 1.0:
            raise DomainError("efficiency_signal must lie in [0, 1]")
        if not 0.0 <= self.efficiency_idler <= 1.0:
            raise DomainError("efficiency_idler must lie in [0, 1]")
        if not 0 <= self.dark_rate < math.inf:
            raise DomainError("dark_rate must be non-negative and finite")
        if not 0 < self.coincidence_window < math.inf:
            raise DomainError("coincidence_window must be positive and finite")


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
        return _delay_grid(self.tau_start, self.tau_step, 0, len(self))


def _delay_grid(start: float, step: float, first: int, stop: int) -> np.ndarray:
    """The delays start + step * i for first <= i < stop: a scan's grid, also
    as rebuilt from a CSV, or one block of it.

    Built in place as one array: i converts to a float exactly below 2**53
    and the sum commutes, so each delay is start + step * i, whatever the
    block it is built in.
    """
    grid = np.arange(first, stop, dtype=np.float64)
    grid *= step
    grid += start
    return grid


@dataclass(frozen=True, eq=False)
class FringeDataset:
    """Delay-scan count record plus acquisition metadata."""

    taus: np.ndarray
    counts: np.ndarray
    dwell: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=np.float64)
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            whole = np.asarray(counts, dtype=np.float64)
            if not np.all((np.floor(whole) == whole) & (np.abs(whole) < 2.0**63)):
                raise DomainError("counts must be whole numbers below 2**63")
        if taus.ndim != 1 or counts.ndim != 1 or taus.size != counts.size:
            raise DomainError("taus and counts must be 1-d arrays of equal length")
        taus = np.ascontiguousarray(taus)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if not np.all(np.isfinite(taus)):
            raise DomainError("taus must be finite")
        if np.any(taus[1:] <= taus[:-1]):
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
        the delay in ps as its shortest round-trip repr, and the count.  The
        delays are scaled to ps one write_rows block at a time."""
        with open(path, "w") as fh:
            fh.write(f"# dwell_s={self.dwell!r}\n")
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write("delay_ps,counts\n")
            for i in range(0, len(self), _BLOCK):
                write_rows(fh, self.taus[i:i + _BLOCK] * 1e12, self.counts[i:i + _BLOCK])


def write_rows(fh, first: np.ndarray, second: np.ndarray) -> None:
    """Write one `first,second` line per element pair, _BLOCK rows per
    write.  Each value is the repr of its Python float or int.

    A block of at least _KERNEL_ROWS float64 firsts and float64 or int64
    seconds is formatted by numpy (`_block_text`), with repr itself for the
    values its exact method leaves out; the bytes are those of the per-row
    comprehension, which formats shorter blocks and other dtypes.  Columns
    of unequal length raise DomainError.
    """
    if len(first) != len(second):
        raise DomainError(f"write_rows needs columns of equal length, "
                          f"got {len(first)} and {len(second)} values")
    kernel = first.dtype == np.float64 and second.dtype in (np.float64, np.int64)
    for i in range(0, len(first), _BLOCK):
        a, b = first[i:i + _BLOCK], second[i:i + _BLOCK]
        if kernel and len(a) >= _KERNEL_ROWS:
            fh.write(_block_text(a, b))
        else:
            fh.write("".join([f"{x!r},{y!r}\n" for x, y in zip(a.tolist(), b.tolist())]))


def _block_text(first: np.ndarray, second: np.ndarray) -> str:
    """The rows write_rows writes for float64 `first` and float64 or int64
    `second`: each value's characters go into a rows x slots uint8 matrix,
    NUL in the slots it does not use, and the NULs are dropped."""
    comma, newline = (np.full((len(first), 1), ord(c), np.uint8) for c in ",\n")
    right = _float_chars(second) if second.dtype == np.float64 else _int_chars(second)
    chars = np.concatenate([_float_chars(first), comma, right, newline], axis=1)
    return chars.tobytes().translate(None, b"\0").decode("ascii")


def _int_chars(v: np.ndarray) -> np.ndarray:
    """repr of each int64: a sign slot, then the digits right-aligned."""
    width = max(len(str(int(v.max()))), len(str(int(v.min()))))
    chars = np.zeros((len(v), width + 1), np.uint8)
    chars[:, 0] = (v < 0) * ord("-")
    _put_digits(chars[:, 1:], np.abs(v).view(np.uint64))  # -2**63 reads as 2**63
    return chars


def _put_digits(chars: np.ndarray, mag: np.ndarray) -> None:
    """Write the uint64 `mag` right-aligned into `chars`, NUL before its
    leading digit; the last slot always gets a digit."""
    last = chars.shape[1] - 1
    for c in range(last, -1, -1):
        q = mag // 10
        chars[:, c] = (mag - q * 10 + 48) * ((mag > 0) | (c == last))
        mag = q


def _float_chars(x: np.ndarray) -> np.ndarray:
    """repr of each float64 in fixed form: a sign slot, the integer digits
    right-aligned, '.', and the fraction digits up to the last nonzero one,
    at least one.  Values the digit functions leave out are written by repr
    itself."""
    m, e, slow = _shortest_digits(x)
    e = np.where(slow, e.max(initial=0, where=~slow), e)
    m = m.astype(np.uint64)
    p10 = np.array([10**k for k in range(20)], dtype=np.uint64)
    wi, wf = max(int(e.max()), 0) + 1, 16 - int(e.min())  # m holds 17 digits
    unit = p10[16 - e]
    whole = m // unit
    frac = (m - whole * unit) * p10[e - e.min()]  # wf digits, left-aligned
    chars = np.zeros((len(x), wi + wf + 2), np.uint8)
    chars[:, 0] = np.signbit(x) * ord("-")
    _put_digits(chars[:, 1:wi + 1], whole)
    nonzero = np.zeros(len(x), bool)
    for c in range(wi + wf + 1, wi + 2, -1):
        q = frac // 10
        d = (frac - q * 10).astype(np.uint8)
        nonzero |= d != 0
        chars[:, c] = (d + 48) * nonzero
        frac = q
    chars[:, wi + 1] = ord(".")
    chars[:, wi + 2] = frac + 48
    idx = np.flatnonzero(slow)
    if idx.size:
        text = np.array([repr(v) for v in x[idx].tolist()], dtype="S")
        if text.itemsize > chars.shape[1]:
            chars = np.pad(chars, ((0, 0), (0, text.itemsize - chars.shape[1])))
        chars[idx] = text.astype(f"S{chars.shape[1]}").view(np.uint8).reshape(idx.size, -1)
    return chars


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each float64 as a 17-digit int64 m (trailing zeros
    padded) and its decimal exponent e, so |x| reads back from
    m * 10**(e - 16); and `_exact_digits`' mask of the values left to repr,
    which also covers those repr writes in exponent form.

    repr writes the shortest decimal that reads back as x and, of those,
    the nearest (Gay's dtoa, mode 0): the correctly rounded 15-, 16- or
    17-digit decimal, whichever first lies strictly within half an ulp of
    x.  Scaled by 10**(16 - e), the distances and the half ulp are exact,
    and in this band no candidate ties with the half ulp or rounds up to
    the next power of ten.  A power of two here is a decimal of at most 15
    digits, so its narrower interval below does not matter.
    """
    n, phi, e, slow = _exact_digits(x)

    def rounded(unit):
        """n + phi rounded half-even to a multiple of unit; its distance.
        t is exact: the remainder is below 100 and phi's lowest bit is at
        least 2**-43 (see `_exact_digits`)."""
        q = n // unit
        t = (n - q * unit) + phi
        q += (t > unit / 2) | ((t == unit / 2) & ((q & 1) == 1))
        return q * unit, np.abs((q * unit - n) - phi)

    half = 0.5 * np.spacing(np.where(slow, 1.0, np.abs(x))) * _POW10[16 - e]
    m15, d15 = rounded(100)
    m16, d16 = rounded(10)
    m = np.where(d15 < half, m15, np.where(d16 < half, m16, rounded(1)[0]))
    return m, e, slow


def _exact_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """|x| * 10**(16 - e) as n + phi exactly, n an int64 in [1e16, 1e17) and
    phi a float64 in [0, 1), with e = floor(log10 |x|); and a mask of the
    values left to repr: 0.0, non-finite values and |x| outside
    [1e-3, 1e15), which repr writes in exponent form or which lie past the
    exact powers of ten.  Masked values get e = 0 and the digits of 1.0.

    n + phi is Dekker's product of |x| and the float 10**(16 - e), exact up
    to 10**22.  In this band its error term is a multiple of
    ulp(x) * 2**(16 - e), at least 2**-43, so phi = err - floor(err) is exact.
    """
    p10_hi, p10_lo = _split(_POW10)
    # Exact: the float nearest 10**k is at or above it for k >= -3.
    bounds = np.array([float(f"1e{k}") for k in range(-3, 16)])
    a = np.abs(x)
    e = np.searchsorted(bounds, a, side="right") - 4
    slow = (e < -3) | (e > 14)
    a[slow] = 1.0  # keeps the products finite: n = 10**16, e = 0
    e[slow] = 0

    s = 16 - e
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = p10_hi[s], p10_lo[s]
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    whole = np.floor(err)
    return p.astype(np.int64) + whole.astype(np.int64), err - whole, e, slow


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: v = hi + lo exactly, each half at most 26 bits wide."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def load_dataset(path) -> FringeDataset:
    """Read a dataset CSV produced by FringeDataset.to_csv (or compatible).

    `#` lines before the rows are `key=value` headers, of which `dwell_s`
    is required; blank lines, a `delay_ps` line and `#` comments are
    skipped.  With `tau_start_s` and `tau_step_s` headers the delays are
    that grid, exactly as ScanConfig.grid builds it; otherwise they are the
    ps column times 1e-12.  A malformed row, a missing or bad header, or a
    delay column more than 1 ulp off its header grid raises DomainError
    naming the file.

    numpy parses the rows into one record array.  The counts are copied
    out of it, the delay column is checked against the header grid one
    block of _BLOCK rows at a time, and the records are dropped before the
    grid is built, so the dataset holds 16 bytes per point and nothing else.
    """
    try:
        metadata, rows = _read_csv(path)
        if "dwell_s" not in metadata:
            raise DomainError("missing '# dwell_s=' header")
        dwell = float(metadata.pop("dwell_s"))
        counts = rows["n"].copy()
        if "tau_start_s" in metadata and "tau_step_s" in metadata:
            start, step = float(metadata["tau_start_s"]), float(metadata["tau_step_s"])
            for i in range(0, rows.size, _BLOCK):
                taus = rows["t"][i:i + _BLOCK] * 1e-12
                grid = _delay_grid(start, step, i, i + taus.size)
                if not np.all(np.abs(taus - grid) <= np.spacing(np.abs(grid))):
                    raise DomainError("delays disagree with the tau_start_s and "
                                      "tau_step_s headers by more than 1 ulp")
            n = rows.size
            del rows
            taus = _delay_grid(start, step, 0, n)
        else:
            taus = rows["t"] * 1e-12
        return FringeDataset(taus, counts, dwell, metadata)
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _read_csv(path) -> tuple[dict, np.ndarray]:
    """The `# key=value` headers above the first row, and the rows, read by numpy."""
    metadata = {}
    with open(path) as fh:
        for skip, line in enumerate(fh):
            text = line.strip()
            if text.startswith("#"):
                key, sep, value = text[1:].partition("=")
                if sep:
                    metadata[key.strip()] = value.strip()
            elif text and not text.startswith("delay_ps"):
                return metadata, np.loadtxt(path, delimiter=",", comments="#", dtype=_ROW,
                                            ndmin=1, skiprows=skip)
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

    The means are formed and drawn one block of _BLOCK points at a time
    into the counts array, so no other array grows with the scan.
    """
    if not 0 <= pair_rate < math.inf:
        raise DomainError("pair_rate must be non-negative and finite")
    if not 0 <= accidental < math.inf:
        raise DomainError("accidental rate must be non-negative and finite")
    rng = CounterRng(seed, STREAM_FRINGE)
    taus = scan.grid()
    eta = det.efficiency_signal * det.efficiency_idler
    counts = np.empty(taus.size, dtype=np.int64)
    for i in range(0, taus.size, _BLOCK):
        block = taus[i:i + _BLOCK]
        means = scan.dwell * (pair_rate * eta * hom_multi(fringe, block) + accidental)
        counts[i:i + block.size] = rng.poisson(means, counter=np.arange(i, i + block.size))

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
