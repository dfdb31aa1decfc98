"""Counter-based RNG: determinism, order independence, Poisson sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from freqbin.errors import DomainError
from freqbin.rng import (
    STREAM_BASIS,
    STREAM_FRINGE,
    STREAM_RECON,
    STREAM_SCAN,
    CounterRng,
    _ndtri,
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


def test_poisson_mean_past_int64_rejected():
    rng = CounterRng(1, STREAM_FRINGE)
    with pytest.raises(DomainError, match="2\\*\\*62"):
        rng.poisson([1e19, 1e300], counter=[0, 1])
    draws = rng.poisson(np.full(4, 2.0**62), counter=np.arange(4))
    assert np.all(draws > 0)


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


# AS 241's branch edges (|u - 1/2| = 0.425, sqrt(-log u) = 5 on either side),
# each with its two neighbouring doubles, and the extreme uniforms.
BRANCH_EDGES = np.array([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
NDTRI_EDGES = np.concatenate([BRANCH_EDGES, np.nextafter(BRANCH_EDGES, 0.0),
                              np.nextafter(BRANCH_EDGES, 1.0), [2.0**-54, 1.0 - 2.0**-53]])


def test_ndtri_matches_scipy():
    u = CounterRng(31, STREAM_RECON).uniforms(np.arange(1 << 20))
    for values in (u, NDTRI_EDGES):
        np.testing.assert_allclose(_ndtri(values), ndtri(values), rtol=4e-15, atol=0.0)


def test_ndtri_keeps_shape_and_values():
    # 60,000 values: more than one 2**15 block, split unevenly across rows.
    u = CounterRng(8, STREAM_RECON).uniforms(np.arange(60000))
    grid = _ndtri(u.reshape(3, 20000))
    assert grid.shape == (3, 20000)
    np.testing.assert_array_equal(grid.ravel(), _ndtri(u))
    assert _ndtri(0.5).shape == ()


@pytest.mark.parametrize("lam", [35.0, 4100.0])
def test_poisson_normal_branch_matches_scipy_formula(lam):
    rng = CounterRng(2024, STREAM_FRINGE)
    counter = np.arange(1 << 20)
    expected = np.maximum(np.floor(lam + np.sqrt(lam) * ndtri(rng.uniforms(counter)) + 0.5),
                          0.0).astype(np.int64)
    np.testing.assert_array_equal(rng.poisson(np.full(counter.size, lam), counter),
                                  expected)


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
