"""Counter-based RNG: determinism, order independence, Poisson sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.rng import (
    STREAM_BASIS,
    STREAM_FRINGE,
    STREAM_RECON,
    STREAM_SCAN,
    CounterRng,
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
GOLDEN_POISSON_100 = [88, 88, 92, 89, 97, 98, 98, 104]


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


def test_poisson_zero_mean_is_zero():
    rng = CounterRng(1, STREAM_FRINGE)
    assert rng.poisson(np.zeros(20), counter=np.arange(20)).tolist() == [0] * 20


def test_poisson_negative_mean_rejected():
    rng = CounterRng(1, STREAM_FRINGE)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rng.poisson([lam], counter=[0])


@pytest.mark.parametrize("lam", [0.5, 5.0, 25.0, 100.0, 3000.0])
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
