"""Counter-based splittable random number generator.

Every sample is a pure function of (seed, stream, counter, slot), so results
do not depend on draw order, thread count, or library version.  The generator
hashes the four-word key with a chained splitmix64 finalizer and converts the
64-bit output to a double in the open interval (0, 1) using the top 53 bits.

Poisson sampling uses exact CDF inversion (a single uniform per draw) for
mean < 30 and a normal approximation with continuity correction above, so
golden outputs are stable and cheap to document:

    k = max(0, floor(lam + sqrt(lam) * Phi^-1(u) + 0.5))    for lam >= 30

Phi^-1, here and in `CounterRng.normals`, is Wichura's AS 241 (Applied
Statistics 37:477, 1988), the rational approximation with about 1e-16
relative error that the standard library's `statistics.NormalDist` uses,
evaluated in numpy.
"""

from __future__ import annotations

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

# Normal-approximation threshold for Poisson sampling.
_POISSON_EXACT_MAX = 30.0

# AS 241 rational approximations, highest degree first: (numerator,
# denominator) for the central region |u - 1/2| <= 0.425 in r = 0.180625 -
# (u - 1/2)^2, then for the tails in r = sqrt(-log(min(u, 1 - u))) - 1.6 when
# that root is at most 5, and in r = root - 5 beyond.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)

# Largest uniform: (2**53 - 1 + 1/2) 2**-53 rounds to 1.0, so the top draw
# is clamped one ulp below it.
_U_MAX = np.nextafter(1.0, 0.0)

# Values per pass of `_ndtri`: bounds its temporaries whatever the input size.
_NDTRI_BLOCK = 1 << 15

# Largest Poisson mean: its draws stay far inside int64 (2**63 - 1), since
# sqrt(2**62) * |z| is at most about 2e10 for any double uniform.
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
        np.minimum(u, _U_MAX, out=u)
        return u.reshape(counter.shape)

    def normals(self, counter, slot=0) -> np.ndarray:
        """Standard normal deviates via inverse-CDF of uniforms."""
        return _ndtri(self.uniforms(counter, slot))

    def poisson(self, lam, counter) -> np.ndarray:
        """Poisson draws with means lam, one per counter element.

        Each draw consumes exactly one uniform (slot 0 of its counter).
        A negative, non-finite or above-2**62 mean raises DomainError (a
        ValueError).
        """
        lam = np.asarray(lam, dtype=np.float64)
        counter = np.asarray(counter, dtype=np.uint64)
        lam, counter = np.broadcast_arrays(lam, counter)
        if not np.all((lam >= 0) & (lam <= _POISSON_MEAN_MAX)):
            raise DomainError("Poisson mean must be finite, non-negative and at most 2**62")
        u = self.uniforms(counter)
        out = np.zeros(lam.shape, dtype=np.int64)

        small = (lam > 0) & (lam < _POISSON_EXACT_MAX)
        if np.any(small):
            out[small] = _poisson_invert(lam[small], u[small])

        big = lam >= _POISSON_EXACT_MAX
        if np.any(big):
            lb = lam[big]
            k = np.floor(lb + np.sqrt(lb) * _ndtri(u[big]) + 0.5)
            out[big] = np.maximum(k, 0.0).astype(np.int64)
        return out


def _horner(r, poly):
    """poly(r), highest degree first, by in-place Horner steps on one new array."""
    acc = poly[0] * r
    for c in poly[1:-1]:
        acc += c
        acc *= r
    acc += poly[-1]
    return acc


def _ratio(r, coefs):
    """numerator(r) / denominator(r) for one (numerator, denominator) pair."""
    num = _horner(r, coefs[0])
    num /= _horner(r, coefs[1])
    return num


def _ndtri(u) -> np.ndarray:
    """Phi^-1(u) for u in (0, 1) by AS 241, in blocks of 2**15 values; keeps u's shape."""
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _NDTRI_BLOCK):
        p = flat[i:i + _NDTRI_BLOCK]
        q = p - 0.5
        r = q * q
        np.subtract(0.180625, r, out=r)
        x = _horner(r, _AS241_CENTRAL[0])
        x *= q
        x /= _horner(r, _AS241_CENTRAL[1])
        tail = np.flatnonzero(np.abs(q) > 0.425)
        if tail.size:
            # min(u, 1 - u) is u below 1/2, and 1 - u is exact above it.
            r = p[tail]
            r = np.sqrt(-np.log(np.minimum(r, 1.0 - r)))
            far = r > 5.0
            xt = _ratio(r - 1.6, _AS241_NEAR)
            if far.any():
                xt[far] = _ratio(r[far] - 5.0, _AS241_FAR)
            x[tail] = np.copysign(xt, q[tail])
        out[i:i + _NDTRI_BLOCK] = x
    return out.reshape(u.shape)


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
