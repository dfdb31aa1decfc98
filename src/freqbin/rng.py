"""Counter-based splittable random number generator.

Every sample is a pure function of (seed, stream, counter, slot), so results
do not depend on draw order, thread count, or library version.  The generator
hashes the four-word key with a chained splitmix64 finalizer and converts the
64-bit output to a double in the open interval (0, 1) using the top 53 bits.

Poisson draws are exact and read slots 0, 1, ... of the point's counter.
Below mean 10 a draw inverts the CDF at slot 0.  From mean 10 up it is
Hormann's PTRS transformed rejection (Insurance: Mathematics and Economics
12:39, 1993), the sampler numpy uses there: round r reads slots 2r and
2r + 1, and the draw is the candidate of its first accepted round.  Normals
are Box-Muller on slots 2s and 2s + 1 for slot s.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError

__all__ = [
    "CounterRng",
    "STREAM_SCAN",
    "STREAM_FRINGE",
    "STREAM_BASIS",
    "STREAM_RECON",
]

STREAM_SCAN = 1
STREAM_FRINGE = 2
STREAM_BASIS = 3
STREAM_RECON = 4

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WORD = 0xFFFFFFFFFFFFFFFF

# Smallest Poisson mean drawn by PTRS, the bottom of its stated domain;
# below it CDF inversion takes O(lam) steps per draw.
_PTRS_MIN = 10.0

# PTRS rounds per draw before DomainError (each rejects with probability at
# most 1/4).  A pass tries as many rounds at once as fit in
# `_PTRS_CANDIDATES` candidates, and at least one.
_PTRS_ROUNDS = 64
_PTRS_CANDIDATES = 1 << 10

# PTRS draws per pass: bounds its temporaries whatever the input size.
_PTRS_BLOCK = 1 << 15

# log k! for k below 16; Stirling's series (through k**-7) takes over above.
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(16)])

# Largest uniform: (2**53 - 1 + 1/2) 2**-53 rounds to 1.0, so the top draw
# is clamped one ulp below it.
_U_MAX = np.nextafter(1.0, 0.0)

# Largest Poisson mean.  PTRS accepts a candidate only where its log pmf
# is above about -131 (the hat's floor for double uniforms); at lam = 2**62
# that keeps a draw within 15 sqrt(lam) of lam, far inside int64 (2**63 - 1).
_POISSON_MEAN_MAX = 2.0**62


def _splitmix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Stateless generator keyed by (seed, stream); draws take a counter.

    Counters identify independent sampling sites (a scan point, a Monte
    Carlo draw); slots index multiple values needed at one site.  A seed
    outside the integers in [0, 2**64) raises DomainError.
    """

    def __init__(self, seed: int, stream: int = 0):
        # A seed is an integer in [0, 2**64): masking a wider one would alias
        # another seed's draws, and truncating 1.5 would draw those of 1.
        try:
            seed = operator.index(seed)
        except TypeError:
            raise DomainError(f"seed must be an integer, got {seed!r}") from None
        if not 0 <= seed <= _WORD:
            raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
        # numpy scalar uint64 ops warn on overflow; array ops wrap silently,
        # so the mixed (seed, stream) key is kept as a 1-element array.
        key = _splitmix(np.array([seed], dtype=np.uint64))
        self._key = _splitmix(key ^ np.uint64(int(stream) & _WORD))

    def _hash(self, counter: np.ndarray, slot: np.ndarray) -> np.ndarray:
        # The counter is mixed before it broadcasts against the slots.  Callers
        # put the slots first: (2, 1) slots against a (1, n) counter broadcast
        # about 15x faster than 2 slots against an (n, 1) counter.
        return _splitmix(_splitmix(self._key ^ counter) ^ slot)

    def uniforms(self, counter, slot=0) -> np.ndarray:
        """Doubles in (0, 1), one per broadcast element of counter/slot."""
        counter = np.asarray(counter, dtype=np.uint64)
        slot = np.asarray(slot, dtype=np.uint64)
        shape = np.broadcast_shapes(counter.shape, slot.shape)
        h = self._hash(counter, slot)
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        np.minimum(u, _U_MAX, out=u)
        return u.reshape(shape)

    def normals(self, counter, slot=0) -> np.ndarray:
        """Standard normal deviates: Box-Muller on slots 2*slot and 2*slot + 1."""
        counter, slot = np.broadcast_arrays(np.asarray(counter, dtype=np.uint64),
                                            np.asarray(slot, dtype=np.uint64))
        u1, u2 = self.uniforms(counter, np.stack([2 * slot, 2 * slot + 1]))
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def poisson(self, lam, counter) -> np.ndarray:
        """Exact Poisson draws with means lam, one per counter element.

        A draw reads slots 0, 1, ... of its counter: slot 0 below mean 10,
        and slots 2r and 2r + 1 in PTRS round r from mean 10 up.  A negative,
        non-finite or above-2**62 mean raises DomainError (a ValueError), and
        so does a draw that PTRS rejects 64 rounds in a row.
        """
        lam = np.asarray(lam, dtype=np.float64)
        counter = np.asarray(counter, dtype=np.uint64)
        lam, counter = np.broadcast_arrays(lam, counter)
        if not np.all((lam >= 0) & (lam <= _POISSON_MEAN_MAX)):
            raise DomainError("Poisson mean must be finite, non-negative and at most 2**62")
        out = np.zeros(lam.shape, dtype=np.int64)

        small = (lam > 0) & (lam < _PTRS_MIN)
        if np.any(small):
            out[small] = _poisson_invert(lam[small], self.uniforms(counter[small]))

        big = np.flatnonzero(lam >= _PTRS_MIN)
        flat = out.reshape(-1)
        lam, counter = lam.reshape(-1), counter.reshape(-1)
        for i in range(0, big.size, _PTRS_BLOCK):
            idx = big[i:i + _PTRS_BLOCK]
            flat[idx] = _poisson_ptrs(self, lam[idx], counter[idx])
        return out


def _poisson_invert(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact CDF inversion: smallest k with P(X <= k) >= u."""
    out = np.zeros(lam.shape, dtype=np.int64)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    k = 0
    active = u > cdf
    # With lam < 10 the pmf falls below 1e-17 by k = 50, so the loop ends
    # there unless the summed CDF rounds below u.
    while np.any(active) and k < 400:
        k += 1
        pmf = pmf * lam / k
        cdf = cdf + pmf
        out[active] = k
        active = u > cdf
    return out


def _log_poisson_pmf(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log(lam**k exp(-lam) / k!) for whole k >= 0 held as doubles."""
    top = _LOG_FACTORIAL.size
    table = k * np.log(lam) - lam - _LOG_FACTORIAL[np.minimum(k, top - 1).astype(np.intp)]
    # Stirling: k log(lam/k) + (k - lam) - log(2 pi k)/2 - (1/12k - 1/360k**3 ...).
    kc = np.maximum(k, top)
    r = 1.0 / (kc * kc)
    corr = (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r / 1680))) / kc
    big = (kc * np.log1p((lam - kc) / kc) + (kc - lam)
           - 0.5 * np.log(2.0 * np.pi * kc) - corr)
    return np.where(k < top, table, big)


def _poisson_ptrs(rng: CounterRng, lam: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Hormann's PTRS for means >= 10: each draw's first accepted round.

    Each pass gives the draws still open one or more rounds at once;
    keeping each draw's first accepted round gives the same draws as one
    round at a time.
    """
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = np.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(lam.size, dtype=np.int64)
    todo = np.arange(lam.size)
    first = 0
    while todo.size:
        if first == _PTRS_ROUNDS:
            raise DomainError(f"PTRS rejected a Poisson draw {_PTRS_ROUNDS} rounds in a row")
        rounds = max(1, min(_PTRS_CANDIDATES // todo.size, _PTRS_ROUNDS - first))
        slots = np.arange(2 * first, 2 * (first + rounds), dtype=np.uint64)
        u = rng.uniforms(counter[todo], slots[:, None])
        U, V = u[0::2] - 0.5, u[1::2]
        us = 0.5 - np.abs(U)
        k = np.floor((2.0 * a[todo] / us + b[todo]) * U + lam[todo] + 0.43)
        ok = (us >= 0.07) & (V <= vr[todo])
        slow = np.flatnonzero(~ok & (k >= 0) & ((us >= 0.013) | (V <= us)))
        if slow.size:
            i, uss = todo[slow % todo.size], us.flat[slow]
            ok.flat[slow] = (np.log(V.flat[slow]) + log_inv_alpha[i] - np.log(a[i] / (uss * uss) + b[i])
                             <= _log_poisson_pmf(k.flat[slow], lam[i]))
        done = ok.any(axis=0)
        hit = np.flatnonzero(done)
        # Only accepted candidates are cast: a rejected one can reach about 1e24.
        out[todo[hit]] = k[ok[:, hit].argmax(axis=0), hit].astype(np.int64)
        todo = todo[~done]
        first += rounds
    return out
