"""Counter-based splittable random number generator.

Every sample is a pure function of (seed, stream, counter, slot), so results
do not depend on draw order, thread count, or library version.  The generator
hashes the four-word key with a chained splitmix64 finalizer and converts the
64-bit output to a double in the open interval (0, 1) using the top 53 bits.

Poisson sampling uses exact CDF inversion (a single uniform per draw) for
mean < 30 and a normal approximation with continuity correction above, so
golden outputs are stable and cheap to document:

    k = max(0, floor(lam + sqrt(lam) * Phi^-1(u) + 0.5))    for lam >= 30
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

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

# Normal-approximation threshold for Poisson sampling.
_POISSON_EXACT_MAX = 30.0


def _splitmix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Stateless generator keyed by (seed, stream); draws take a counter.

    Counters identify independent sampling sites (a scan point, a Monte
    Carlo draw); slots index multiple values needed at one site.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._stream = np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF)

    def _hash(self, counter: np.ndarray, slot: np.ndarray) -> np.ndarray:
        # numpy scalar uint64 ops warn on overflow; array ops wrap silently,
        # so all four words are promoted to arrays before mixing.
        h = _splitmix(np.atleast_1d(self._seed))
        h = _splitmix(h ^ self._stream)
        h = _splitmix(h ^ np.asarray(counter, dtype=np.uint64))
        h = _splitmix(h ^ np.asarray(slot, dtype=np.uint64))
        return h

    def uniforms(self, counter, slot=0) -> np.ndarray:
        """Doubles in (0, 1), one per broadcast element of counter/slot."""
        counter = np.asarray(counter, dtype=np.uint64)
        slot = np.asarray(slot, dtype=np.uint64)
        counter, slot = np.broadcast_arrays(counter, slot)
        h = self._hash(counter, slot)
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return u.reshape(counter.shape)

    def normals(self, counter, slot=0) -> np.ndarray:
        """Standard normal deviates via inverse-CDF of uniforms."""
        return ndtri(self.uniforms(counter, slot))

    def poisson(self, lam, counter) -> np.ndarray:
        """Poisson draws with means lam, one per counter element.

        Each draw consumes exactly one uniform (slot 0 of its counter).
        A negative or non-finite mean raises DomainError (a ValueError).
        """
        lam = np.asarray(lam, dtype=np.float64)
        counter = np.asarray(counter, dtype=np.uint64)
        lam, counter = np.broadcast_arrays(lam, counter)
        if not np.all(np.isfinite(lam) & (lam >= 0)):
            raise DomainError("Poisson mean must be finite and non-negative")
        u = self.uniforms(counter)
        out = np.zeros(lam.shape, dtype=np.int64)

        small = (lam > 0) & (lam < _POISSON_EXACT_MAX)
        if np.any(small):
            out[small] = _poisson_invert(lam[small], u[small])

        big = lam >= _POISSON_EXACT_MAX
        if np.any(big):
            lb = lam[big]
            k = np.floor(lb + np.sqrt(lb) * ndtri(u[big]) + 0.5)
            out[big] = np.maximum(k, 0.0).astype(np.int64)
        return out


def _poisson_invert(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact CDF inversion: smallest k with P(X <= k) >= u."""
    out = np.zeros(lam.shape, dtype=np.int64)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    k = 0
    active = u > cdf
    # With lam < 30 the CDF reaches any double u well before k ~ 200.
    while np.any(active) and k < 400:
        k += 1
        pmf = pmf * lam / k
        cdf = cdf + pmf
        out[active] = k
        active = u > cdf
    return out
