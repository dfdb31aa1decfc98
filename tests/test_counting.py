"""Scan schedules, Poisson sampling of fringes, dataset round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.comb import DEFAULT_MODEL, pair_for_index
from freqbin.counting import (
    MAX_SCAN_POINTS,
    DetectorModel,
    FringeDataset,
    ScanConfig,
    accidental_rate,
    computational_basis_counts,
    load_dataset,
    simulate_fringe,
)
from freqbin.errors import DomainError
from freqbin.hom import Envelope, FringeModel


def flat_model(v=0.0):
    det = float(pair_for_index(DEFAULT_MODEL, 2).detuning)
    return FringeModel(((det, v, 0.0),), 0.0, 0.0,
                       Envelope.from_fwhm(DEFAULT_MODEL.fwhm))


def test_grid_covers_coarse_scan_inclusively():
    scan = ScanConfig(0.0, 2.4e-9, 2e-12, 60.0)
    grid = scan.grid()
    assert grid.size == 1201
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2.4e-9, rel=1e-12)
    assert np.all(np.diff(grid) > 0)


def test_scan_validation():
    with pytest.raises(DomainError):
        ScanConfig(0.0, 1e-9, 0.0, 1.0)
    with pytest.raises(DomainError):
        ScanConfig(1e-9, 0.0, 1e-12, 1.0)
    with pytest.raises(DomainError):
        ScanConfig(0.0, 1e-9, 1e-12, 0.0)


def test_scan_cap_and_rounding_rejected_without_allocating():
    assert len(ScanConfig(0.0, MAX_SCAN_POINTS - 1.0, 1.0, 1.0)) == MAX_SCAN_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="1,000,000 points"):
            ScanConfig(0.0, float(MAX_SCAN_POINTS), 1.0, 1.0)
        # At 1 ks a double resolves about 1.1e-13 s: a 0.1 ps step repeats delays.
        with pytest.raises(DomainError, match="rounding"):
            ScanConfig(1e3, 1e3 + 4e-12, 1e-13, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(ScanConfig(1e3, 1e3 + 4e-12, 3e-13, 1.0).grid()) == 14


def test_dataset_validation():
    with pytest.raises(DomainError):
        FringeDataset(np.array([0.0, 0.0]), np.array([1, 2]), 1.0)
    with pytest.raises(DomainError):
        FringeDataset(np.array([0.0, 1.0]), np.array([1, -2]), 1.0)
    with pytest.raises(DomainError):
        FringeDataset(np.array([0.0, 1.0]), np.array([1]), 1.0)
    ds = FringeDataset(np.array([0.0, 1.0]), np.array([3, 4]), 1.0)
    assert len(ds) == 2


def test_zero_rate_gives_all_zeros(detector):
    scan = ScanConfig(0.0, 1e-10, 1e-12, 1.0)
    ds = simulate_fringe(flat_model(), scan, detector, 0.0, seed=1)
    assert np.all(ds.counts == 0)


def test_determinism_same_seed(detector):
    scan = ScanConfig(0.0, 1e-10, 1e-12, 10.0)
    a = simulate_fringe(flat_model(0.8), scan, detector, 500.0, seed=42)
    b = simulate_fringe(flat_model(0.8), scan, detector, 500.0, seed=42)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = simulate_fringe(flat_model(0.8), scan, detector, 500.0, seed=43)
    assert np.any(c.counts != a.counts)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_worker_count_does_not_change_output(detector, workers):
    scan = ScanConfig(0.0, 2e-10, 1e-12, 10.0)
    serial = simulate_fringe(flat_model(0.8), scan, detector, 500.0, seed=9)
    parallel = simulate_fringe(flat_model(0.8), scan, detector, 500.0, seed=9,
                               workers=workers)
    np.testing.assert_array_equal(serial.counts, parallel.counts)
    assert serial.metadata == parallel.metadata


def test_sample_mean_tracks_lambda(detector):
    # V = 0 gives flat p = 1/2; lambda = dwell*rate*eta/2 = 1000 per point.
    scan = ScanConfig(0.0, 199e-12, 1e-12, 1.0)
    rate = 8000.0
    lam = 1.0 * rate * 0.25 * 0.5
    ds = simulate_fringe(flat_model(0.0), scan, detector, rate, seed=7)
    assert len(ds) == 200
    se = math.sqrt(lam / 200)
    assert abs(ds.counts.mean() - lam) < 4 * se


def test_accidental_rate_adds_floor(detector):
    scan = ScanConfig(0.0, 99e-12, 1e-12, 1.0)
    ds = simulate_fringe(flat_model(0.0), scan, detector, 0.0, seed=3,
                         accidental=200.0)
    assert abs(ds.counts.mean() - 200.0) < 4 * math.sqrt(200.0 / 100)


def test_taus_reproduce_grid_exactly(detector):
    scan = ScanConfig(-3e-12, 3e-12, 0.1e-12, 2.0)
    ds = simulate_fringe(flat_model(0.5), scan, detector, 100.0, seed=5)
    np.testing.assert_array_equal(ds.taus, scan.grid())


def test_metadata_recorded(detector):
    scan = ScanConfig(0.0, 1e-11, 1e-12, 2.0)
    ds = simulate_fringe(flat_model(0.7), scan, detector, 120.0, seed=17)
    assert ds.metadata["seed"] == 17
    assert "detunings_hz" in ds.metadata
    assert "sigma_rad_s" in ds.metadata
    assert float(ds.metadata["pair_rate_hz"]) == 120.0


def test_csv_roundtrip(tmp_path, detector):
    scan = ScanConfig(0.0, 5e-11, 1e-12, 30.0)
    ds = simulate_fringe(flat_model(0.8), scan, detector, 300.0, seed=23)
    path = tmp_path / "fringe.csv"
    ds.to_csv(path)
    back = load_dataset(path)
    # Delays are serialized in picoseconds; the unit conversion can move
    # the seconds value by one ulp.
    np.testing.assert_allclose(back.taus, ds.taus, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(back.counts, ds.counts)
    assert back.dwell == ds.dwell
    assert back.metadata["detunings_hz"] == ds.metadata["detunings_hz"]


def test_negative_rate_rejected(detector):
    scan = ScanConfig(0.0, 1e-11, 1e-12, 1.0)
    with pytest.raises(DomainError):
        simulate_fringe(flat_model(), scan, detector, -1.0, seed=0)
    with pytest.raises(DomainError):
        simulate_fringe(flat_model(), scan, detector, 1.0, seed=0,
                        accidental=-0.5)


def test_detector_validation():
    with pytest.raises(DomainError):
        DetectorModel(1.5, 0.5, 0.0, 1e-9)
    with pytest.raises(DomainError):
        DetectorModel(0.5, 0.5, -1.0, 1e-9)
    with pytest.raises(DomainError):
        DetectorModel(0.5, 0.5, 0.0, 0.0)


@pytest.mark.parametrize("s1, s2, window, expected", [
    (1e5, 1e5, 1e-9, 10.0),
    (1e5, 1e5, 0.0, 0.0),
    (0.0, 1e6, 1e-9, 0.0),
])
def test_accidental_rate_formula(s1, s2, window, expected):
    assert accidental_rate(s1, s2, window) == expected


def test_accidental_rate_validation():
    with pytest.raises(DomainError):
        accidental_rate(-1.0, 1.0, 1e-9)


def test_basis_counts_edges():
    assert computational_basis_counts(0.7, 100.0, 0.0, 5) == (0, 0)
    n_si, n_is = computational_basis_counts(1.0, 100.0, 10.0, 5)
    assert n_is == 0 and n_si > 0
    n_si, n_is = computational_basis_counts(0.0, 100.0, 10.0, 5)
    assert n_si == 0 and n_is > 0


def test_basis_counts_ratio_statistics():
    # Means tuned to the reported basis counts 5914 / 2527.
    total, dwell = 8441.0 / 60.0, 60.0
    ratios = []
    for seed in range(200):
        n1, n2 = computational_basis_counts(0.700628, total, dwell, seed)
        ratios.append(n1 / (n1 + n2))
    assert np.mean(ratios) == pytest.approx(0.7006, abs=0.002)


def test_basis_counts_validation():
    with pytest.raises(DomainError):
        computational_basis_counts(1.2, 100.0, 1.0, 0)
    with pytest.raises(DomainError):
        computational_basis_counts(0.5, -1.0, 1.0, 0)


@given(seed=st.integers(min_value=0, max_value=2**32),
       rate=st.floats(min_value=0.0, max_value=5000.0),
       v=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_counts_nonnegative_and_grid_stable(seed, rate, v):
    det = DetectorModel(0.5, 0.5, 0.0, 1e-9)
    scan = ScanConfig(0.0, 2e-11, 1e-12, 1.0)
    ds = simulate_fringe(flat_model(v), scan, det, rate, seed=seed)
    assert np.all(ds.counts >= 0)
    np.testing.assert_array_equal(ds.taus, scan.grid())
