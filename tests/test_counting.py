"""Scan schedules, Poisson sampling of fringes, dataset round trips."""

import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.comb import pair_for_index
from freqbin.config import load_config
from freqbin.counting import (
    MAX_SCAN_POINTS,
    DetectorModel,
    FringeDataset,
    ScanConfig,
    accidental_rate,
    computational_basis_counts,
    load_dataset,
    simulate_fringe,
    _block_text,
    write_rows,
)
from freqbin.errors import DomainError
from freqbin.hom import Envelope, FringeModel

MODEL = load_config().resonator


def flat_model(v=0.0):
    det = float(pair_for_index(MODEL, 2).detuning)
    return FringeModel(((det, v, 0.0),), 0.0, 0.0,
                       Envelope.from_fwhm(MODEL.fwhm))


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
    np.testing.assert_array_equal(back.taus, ds.taus)
    np.testing.assert_array_equal(back.counts, ds.counts)
    assert back.dwell == ds.dwell
    assert back.metadata["detunings_hz"] == ds.metadata["detunings_hz"]


def test_stock_multiplexed_scan_reloads_bitwise(tmp_path, detector):
    """The stock fig3 2-5 window reloads exactly; its ps column alone does not."""
    scan = load_config(None).delay_scan("multi")
    pairs = tuple((float(pair_for_index(MODEL, m).detuning), 0.84, 0.0)
                  for m in (2, 3, 4, 5))
    model = FringeModel(pairs, 0.0, 0.0, Envelope.from_fwhm(MODEL.fwhm))
    ds = simulate_fringe(model, scan, detector, 268.0, seed=12345)
    path = tmp_path / "fringe.csv"
    ds.to_csv(path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.taus, scan.grid())
    np.testing.assert_array_equal(back.counts, ds.counts)
    # Without the grid headers the delays come from the column, up to 1 ulp off.
    text = path.read_text()
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith("# tau_")))
    column = load_dataset(headerless).taus
    assert np.count_nonzero(column != ds.taus) == 24
    assert np.all(np.abs(column - ds.taus) <= np.spacing(np.abs(ds.taus)))


def test_header_grid_contradicted_by_column_rejected(tmp_path, detector):
    scan = ScanConfig(-5e-12, 5e-12, 1e-13, 1.0)
    ds = simulate_fringe(flat_model(0.5), scan, detector, 100.0, seed=2)
    path = tmp_path / "fringe.csv"
    ds.to_csv(path)
    text = path.read_text()
    path.write_text(text.replace("# tau_step_s=1e-13", "# tau_step_s=1.0000000000001e-13"))
    with pytest.raises(DomainError, match="fringe.csv.*1 ulp"):
        load_dataset(path)


def test_to_csv_bytes_match_per_row_format(tmp_path, detector):
    """Two blocks of 2**14 rows and negative delays, byte for byte."""
    scan = ScanConfig(-1e-9, 1e-9, 1e-13, 0.5)
    ds = simulate_fringe(flat_model(0.5), scan, detector, 4000.0, seed=4)
    assert len(ds) > 2**14 and ds.taus[0] < 0
    path = tmp_path / "fringe.csv"
    ds.to_csv(path)
    expected = [f"# dwell_s={ds.dwell!r}\n"]
    expected += [f"# {key}={ds.metadata[key]}\n" for key in sorted(ds.metadata)]
    expected.append("delay_ps,counts\n")
    expected += [f"{float(tau) * 1e12!r},{int(n)}\n" for tau, n in zip(ds.taus, ds.counts)]
    assert path.read_text() == "".join(expected)

    curve = tmp_path / "curve.csv"
    values = np.linspace(0.0, 1.0, len(ds)) ** 3
    with open(curve, "w") as fh:
        write_rows(fh, ds.taus * 1e12, values)
    assert curve.read_text() == "".join(
        f"{float(tau) * 1e12!r},{float(v)!r}\n" for tau, v in zip(ds.taus, values))


def _rows(first, second):
    """What write_rows must write: the repr of each Python float or int."""
    return "".join([f"{a!r},{b!r}\n" for a, b in zip(first.tolist(), second.tolist())])


@given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(-2**63, 2**63 - 1)),
                min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_block_kernel_matches_repr(rows):
    x, y, n = (np.array(column) for column in zip(*rows))
    assert _block_text(x, n) == _rows(x, n)
    assert _block_text(x, y) == _rows(x, y)


def test_full_blocks_match_repr_sweep():
    """Four full blocks, 131,072 values, across the kernel's band and edges."""
    rng = np.random.default_rng(18)
    size = 4 * 2**14
    # Binary exponents -20 to 59, both signs, one in 16 a power of two.
    mantissa = rng.integers(0, 2**52, size, dtype=np.uint64)
    mantissa[rng.random(size) < 1 / 16] = 0
    exponent = rng.integers(1023 - 20, 1023 + 60, size, dtype=np.uint64)
    sign = rng.integers(0, 2, size, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    edges = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                      2.2250738585072014e-308, 2.0**-10, 2.0**10, 2.0**49, 2.0**50,
                      1e-3, -1e-3, 1e15, -1e15, 1e16, 9999.999999999998,
                      0.30000000000000004, 123456789012345.6, 0.0012345678901234567])
    decades = 10.0 ** np.arange(-4, 18)
    decades = np.concatenate([decades, np.nextafter(decades, 0.0),
                              np.nextafter(decades, np.inf)])
    # 17 significant digits, and dyadic values whose exact decimals tie
    # at 15, 16 or 17 digits.
    digits17 = np.array([float(f"{m}e{s}") for m, s in zip(
        rng.integers(10**16, 10**17, 4096).tolist(), rng.integers(-19, 15, 4096).tolist())])
    dyadic = np.ldexp(rng.integers(1, 2**53, 8192).astype(float), rng.integers(-60, 1, 8192))
    first = bits.view(np.float64)
    first[rng.permutation(size)[:edges.size + decades.size + 4096 + 8192]] = np.concatenate(
        [edges, decades, digits17, dyadic])
    counts = rng.integers(-2**63, 2**63, size, dtype=np.int64, endpoint=False)
    counts[:6] = [0, -1, 1, 2**63 - 1, -2**63, 10**18]
    for second in (counts, first[::-1].copy()):
        fh = io.StringIO()
        write_rows(fh, first, second)
        assert fh.getvalue() == _rows(first, second)


def test_dense_multiplexed_scan_writes_repr_and_reloads(tmp_path, detector):
    """A 2-15 scan at +/-2 ns and 0.1 ps: two full blocks and a tail."""
    cfg = load_config(None)
    pairs = tuple((float(pair_for_index(MODEL, m).detuning), 0.84, 0.0) for m in range(2, 16))
    model = FringeModel(pairs, 0.0, 0.0, Envelope.from_fwhm(MODEL.fwhm))
    scan = ScanConfig(-2e-9, 2e-9, cfg.fine_step, cfg.dwell_multi)
    ds = simulate_fringe(model, scan, detector, 14 * cfg.pair_rate, seed=15)
    assert len(ds) == 40_001
    path = tmp_path / "dense.csv"
    ds.to_csv(path)
    header = [f"# dwell_s={ds.dwell!r}\n"]
    header += [f"# {key}={ds.metadata[key]}\n" for key in sorted(ds.metadata)]
    header.append("delay_ps,counts\n")
    assert path.read_text() == "".join(header) + _rows(ds.taus * 1e12, ds.counts)
    back = load_dataset(path)
    assert back.taus.tobytes() == ds.taus.tobytes()
    np.testing.assert_array_equal(back.counts, ds.counts)


@pytest.mark.parametrize("text, taus_ps, counts", [
    ("# dwell_s=2.0\n\ndelay_ps,counts\n\n1.5,10\n\n2.5,11\n\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\r\ndelay_ps,counts\r\n1.5,10\r\n2.5,11\r\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\ndelay_ps,counts\n1.5,10\n# pause\n2.5,11\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\n1.5,10\n2.5,11\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\ndelay_ps,counts\n 1.5 , 10 \n2.5 ,11\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\ndelay_ps,counts\n1.5,9007199254740993\n", [1.5], [2**53 + 1]),
    ("# dwell_s=2.0\ndelay_ps,counts\n", [], []),
], ids=["blank_lines", "crlf", "body_comment", "no_column_line", "spaces",
        "count_above_2_53", "no_rows"])
def test_load_dataset_accepts_layouts(tmp_path, text, taus_ps, counts):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_dataset(path)
    np.testing.assert_array_equal(ds.taus, np.array(taus_ps) * 1e-12)
    assert ds.counts.tolist() == counts
    assert ds.dwell == 2.0


@pytest.mark.parametrize("body, match", [
    ("1.5,ten\n", "ten"),
    ("1.5,10,3\n", "3 were found"),
    ("x1.5,10\n", "x1.5"),
    ("1.5,10.5\n", "10.5"),
    ("1.5,-3\n", "non-negative"),
    ("2.5,10\n1.5,11\n", "increasing"),
    ("nan,10\n", "finite"),
], ids=["count", "third_column", "delay", "fractional_count", "negative_count",
        "unordered", "nan_delay"])
def test_malformed_csv_rejected_naming_file(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("# dwell_s=2.0\ndelay_ps,counts\n" + body)
    with pytest.raises(DomainError, match=match) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("header", ["", "# dwell_s=soon\n"], ids=["missing", "bad"])
def test_dwell_header_required(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "delay_ps,counts\n1.5,10\n")
    with pytest.raises(DomainError, match="dwell_s|soon") as err:
        load_dataset(path)
    assert str(path) in str(err.value)


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
