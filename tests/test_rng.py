"""Counter-based RNG: determinism, order independence, Poisson sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from freqbin import rng as rng_module
from freqbin.errors import DomainError
from freqbin.rng import (
    STREAM_BASIS,
    STREAM_FRINGE,
    STREAM_RECON,
    STREAM_SCAN,
    CounterRng,
    _log_poisson_pmf,
)

# Frozen golden values: the generator is hand-rolled precisely so these
# never move with library versions.
GOLDEN_UNIFORMS = {
    0: 0.11260582053766693,
    1: 0.1080147535641835,
    2: 0.2011439322718977,
    1000000: 0.20258245995917984,
}
GOLDEN_SLOT1 = 0.7910729494434652
GOLDEN_POISSON_5 = [2, 2, 3, 3, 4, 4, 4, 6]
GOLDEN_POISSON_100 = [86, 85, 90, 87, 97, 98, 97, 104]


def test_uniform_goldens():
    rng = CounterRng(12345, STREAM_FRINGE)
    for counter, expected in GOLDEN_UNIFORMS.items():
        assert float(rng.uniforms(counter)) == expected
    assert float(rng.uniforms(0, slot=1)) == GOLDEN_SLOT1


def test_poisson_goldens():
    rng = CounterRng(12345, STREAM_FRINGE)
    small = rng.poisson(np.full(8, 5.0), counter=np.arange(8))
    assert small.tolist() == GOLDEN_POISSON_5
    big = rng.poisson(np.full(8, 100.0), counter=np.arange(8))
    assert big.tolist() == GOLDEN_POISSON_100


def test_streams_are_distinct():
    streams = [STREAM_SCAN, STREAM_FRINGE, STREAM_BASIS, STREAM_RECON]
    assert len(set(streams)) == 4
    draws = [float(CounterRng(7, s).uniforms(0)) for s in streams]
    assert len(set(draws)) == 4


def test_vector_matches_scalar_draws():
    rng = CounterRng(99, STREAM_SCAN)
    vec = rng.uniforms(np.arange(50))
    sca = np.array([float(rng.uniforms(i)) for i in range(50)])
    np.testing.assert_array_equal(vec, sca)


def test_counter_order_independence():
    rng = CounterRng(5, STREAM_FRINGE)
    perm = np.array([3, 0, 4, 1, 2])
    a = rng.poisson(np.full(5, 8.0), counter=np.arange(5))
    b = rng.poisson(np.full(5, 8.0), counter=perm)
    np.testing.assert_array_equal(a[perm], b)


def test_uniforms_open_interval():
    rng = CounterRng(0, 0)
    u = rng.uniforms(np.arange(10000))
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    # An all-ones hash is the largest uniform; (2**53 - 1) + 1/2 rounds up.
    rng._hash = lambda counter, slot: np.full(np.broadcast_shapes(np.shape(counter),
                                                                  np.shape(slot)),
                                              np.uint64(2**64 - 1))
    assert rng.uniforms([0])[0] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(rng.normals([0])))
    # PTRS rejects every candidate built from the top uniform, up to its round cap.
    with pytest.raises(DomainError, match="64 rounds"):
        rng.poisson([100.0], counter=[0])


def test_poisson_zero_mean_is_zero():
    rng = CounterRng(1, STREAM_FRINGE)
    assert rng.poisson(np.zeros(20), counter=np.arange(20)).tolist() == [0] * 20


def test_poisson_negative_mean_rejected():
    rng = CounterRng(1, STREAM_FRINGE)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rng.poisson([lam], counter=[0])


def test_poisson_mean_past_int64_rejected():
    rng = CounterRng(1, STREAM_FRINGE)
    with pytest.raises(DomainError, match="2\\*\\*62"):
        rng.poisson([1e19, 1e300], counter=[0, 1])
    draws = rng.poisson(np.full(4, 2.0**62), counter=np.arange(4))
    assert np.all(draws > 0)


@pytest.mark.parametrize("lam", [0.5, 5.0, 9.99, 10.0, 25.0, 100.0, 3000.0])
def test_poisson_moments(lam):
    rng = CounterRng(2024, STREAM_FRINGE)
    n = 20000
    draws = rng.poisson(np.full(n, lam), counter=np.arange(n))
    se_mean = np.sqrt(lam / n)
    assert abs(draws.mean() - lam) < 5 * se_mean
    # Poisson variance equals the mean; allow a wide statistical band.
    assert abs(draws.var() - lam) < 6 * lam * np.sqrt(2.0 / n) + 0.05


def test_normals_standardized():
    rng = CounterRng(77, STREAM_RECON)
    z = rng.normals(np.arange(20000))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_log_pmf_matches_scipy():
    # Both branches of PTRS's slow test: the log k! table below 16, Stirling above.
    k = np.arange(0.0, 8000.0)
    for lam in (10.0, 35.0, 500.0, 4100.0):
        np.testing.assert_allclose(_log_poisson_pmf(k, np.full(k.size, lam)),
                                   stats.poisson.logpmf(k, lam), rtol=1e-13, atol=1e-10)


# One PTRS round per pass with blocks smaller than the input, and every
# round at once.
@pytest.mark.parametrize("candidates, block", [(1, 257), (1 << 20, 1 << 15)])
def test_poisson_draws_do_not_depend_on_batching(monkeypatch, candidates, block):
    rng = CounterRng(3, STREAM_FRINGE)
    lam = np.linspace(10.0, 600.0, 3000)
    expected = rng.poisson(lam, counter=np.arange(lam.size))
    monkeypatch.setattr(rng_module, "_PTRS_CANDIDATES", candidates)
    monkeypatch.setattr(rng_module, "_PTRS_BLOCK", block)
    np.testing.assert_array_equal(rng.poisson(lam, counter=np.arange(lam.size)), expected)


@pytest.mark.parametrize("lam", [10.0, 35.0, 500.0, 4100.0])
def test_poisson_matches_scipy_pmf(lam):
    n = 1 << 18
    draws = CounterRng(0, STREAM_FRINGE).poisson(np.full(n, lam), counter=np.arange(n))
    # Each end bin holds a tail of probability at least 1e-3.
    lo, hi = stats.poisson.ppf([1e-3, 1.0 - 1e-3], lam).astype(np.int64)
    observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
    cdf = stats.poisson.cdf(np.arange(lo, hi), lam)
    expected = n * np.diff(cdf, prepend=0.0, append=1.0)
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_normals_match_scipy_norm():
    z = CounterRng(0, STREAM_RECON).normals(np.arange(1 << 16))
    assert stats.kstest(z, stats.norm.cdf).pvalue > 1e-3


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       stream=st.integers(min_value=0, max_value=2**32),
       counter=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_determinism_property(seed, stream, counter):
    a = CounterRng(seed, stream).uniforms(counter)
    b = CounterRng(seed, stream).uniforms(counter)
    assert float(a) == float(b)
    assert 0.0 < float(a) < 1.0


@given(shape=st.sampled_from([(3,), (4, 5), (2, 3, 2)]))
def test_uniform_shape_follows_counter(shape):
    rng = CounterRng(3, 1)
    counters = np.arange(int(np.prod(shape))).reshape(shape)
    assert rng.uniforms(counters).shape == shape
