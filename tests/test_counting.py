"""Scan schedules, Poisson sampling of fringes, dataset round trips."""

import io
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import freqbin.counting
from freqbin.comb import pair_for_index, transmission
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
    _BLOCK,
    _KERNEL_ROWS,
    _block_text,
    _parse_lines,
    write_rows,
)
from freqbin.errors import DomainError
from freqbin.hom import Envelope, FringeModel, hom_multi
from freqbin.rng import STREAM_FRINGE, CounterRng
from freqbin.scenarios import run_scenario

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


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, 1e30, -1.0, -1])
def test_dataset_refuses_counts_that_are_not_whole_int64(bad):
    with pytest.raises(DomainError, match="counts"):
        FringeDataset(np.array([0.0, 1.0]), [2, bad], 1.0)


@pytest.mark.parametrize("make", [
    lambda dwell: ScanConfig(0.0, 1e-9, 1e-12, dwell),
    lambda dwell: FringeDataset(np.array([0.0, 1.0]), np.array([2, 3]), dwell),
], ids=["scan", "dataset"])
@pytest.mark.parametrize("dwell", [math.inf, math.nan, 0.0])
def test_dwell_must_be_positive_and_finite(make, dwell):
    with pytest.raises(DomainError, match="dwell must be positive and finite"):
        make(dwell)


def test_dataset_accepts_whole_float_counts():
    ds = FringeDataset(np.array([0.0, 1.0]), np.array([2.0, 3.0]), 1.0)
    assert ds.counts.dtype == np.int64 and ds.counts.tolist() == [2, 3]


def test_zero_rate_gives_all_zeros(detector):
    scan = ScanConfig(0.0, 1e-10, 1e-12, 1.0)
    ds = simulate_fringe(flat_model(), scan, detector, 0.0, seed=1)
    assert np.all(ds.counts == 0)


@pytest.mark.parametrize("field, dark_rate, window", [
    ("dark_rate", math.nan, 1e-9),
    ("dark_rate", math.inf, 1e-9),
    ("coincidence_window", 100.0, math.inf),
    ("coincidence_window", 100.0, math.nan),
])
def test_detector_refuses_non_finite_fields(field, dark_rate, window):
    with pytest.raises(DomainError, match=f"^{field} must be"):
        DetectorModel(0.5, 0.5, dark_rate, window)


@pytest.mark.parametrize("field, pair_rate, accidental", [
    ("pair_rate", math.nan, 0.0),
    ("pair_rate", math.inf, 0.0),
    ("accidental rate", 500.0, math.nan),
    ("accidental rate", 500.0, math.inf),
])
def test_simulate_fringe_refuses_non_finite_rates(detector, field, pair_rate, accidental):
    scan = ScanConfig(0.0, 1e-10, 1e-12, 1.0)
    with pytest.raises(DomainError, match=f"^{field} must be non-negative and finite"):
        simulate_fringe(flat_model(), scan, detector, pair_rate, seed=1, accidental=accidental)


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


@pytest.mark.parametrize("metadata, key", [
    ({"dwell_s": "5"}, "dwell_s"),
    ({"": "v"}, ""),
    ({"a=b": "c"}, "a=b"),
    ({"a\nb": "c"}, "a\nb"),
    ({"a\rb": "c"}, "a\rb"),
    ({" k": "v"}, " k"),
    ({"k ": "v"}, "k "),
    ({"note": "x\ny"}, "note"),
    ({"note": "x\r\ny"}, "note"),
    ({"k": " v"}, "k"),
    ({"k": "v\t"}, "k"),
    ({1: "a", "1": "b"}, "1"),
    ({"tau_start_s": "0 ps", "tau_step_s": "1e-12"}, "tau_start_s"),
    ({"tau_start_s": "5e-12", "tau_step_s": "1e-12"}, "tau_start_s"),
], ids=["dwell_s_key", "empty_key", "equals_in_key", "newline_in_key", "return_in_key",
        "leading_space_key", "trailing_space_key", "newline_in_value", "crlf_in_value",
        "leading_space_value", "trailing_tab_value", "repeated_key_text",
        "grid_header_not_a_float", "delays_off_header_grid"])
def test_to_csv_refuses_metadata_that_does_not_read_back(tmp_path, metadata, key):
    """Each of these entries would come back changed, shadow dwell_s, break
    the file or be refused by load_dataset, so to_csv raises, naming the
    key, and writes nothing."""
    path = tmp_path / "data.csv"
    ds = FringeDataset(np.array([0.0, 1e-12]), np.array([3, 4]), 1.0, metadata)
    with pytest.raises(DomainError, match=re.escape(repr(key))):
        ds.to_csv(path)
    assert not path.exists()


def test_to_csv_metadata_reads_back_as_written(tmp_path):
    metadata = {"empty": "", "expr": "b=c", "#": "x", "seed": 7, "inner": "a b\tc", 1: "a"}
    path = tmp_path / "data.csv"
    FringeDataset(np.array([0.0, 1e-12]), np.array([3, 4]), 1.0, metadata).to_csv(path)
    back = load_dataset(path)
    assert back.metadata == {str(k): str(v) for k, v in metadata.items()} and back.dwell == 1.0


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


def _assert_same(actual, expected):
    """actual == expected for large str or bytes values, failing at once.

    pytest's own report of a failed == builds a diff of both whole values,
    which for a file of 10**5 rows does not finish; this names the first
    differing line (str) or byte offset (bytes) and both lengths instead.
    """
    __tracebackhide__ = True
    if actual == expected:
        return
    if isinstance(actual, bytes):
        at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
                  min(len(actual), len(expected)))
        where = f"byte {at}"
    else:
        got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        where = f"line {at + 1}: {got[at:at + 1]!r} != {want[at:at + 1]!r}"
    pytest.fail(f"first difference at {where}; lengths {len(actual)} and {len(expected)}")


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
    _assert_same(path.read_text(), "".join(expected))

    curve = tmp_path / "curve.csv"
    values = np.linspace(0.0, 1.0, len(ds)) ** 3
    with open(curve, "w") as fh:
        write_rows(fh, ds.taus * 1e12, values)
    _assert_same(curve.read_text(), "".join(
        f"{float(tau) * 1e12!r},{float(v)!r}\n" for tau, v in zip(ds.taus, values)))


def _rows(first, second):
    """What write_rows must write: the repr of each Python float or int."""
    return "".join([f"{a!r},{b!r}\n" for a, b in zip(first.tolist(), second.tolist())])


@given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(-2**63, 2**63 - 1)),
                min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_block_kernel_matches_repr(rows):
    x, y, n = (np.array(column) for column in zip(*rows))
    _assert_same(_block_text(x, n), _rows(x, n))
    _assert_same(_block_text(x, y), _rows(x, y))


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
        _assert_same(fh.getvalue(), _rows(first, second))


def _written(first, second):
    fh = io.StringIO()
    write_rows(fh, first, second)
    return fh.getvalue()


@pytest.mark.parametrize("rows", [1023, 1024, 1201])
def test_kernel_takes_blocks_of_1024_rows_or_more(monkeypatch, rows):
    """Against the comprehension; numpy formats the block at _KERNEL_ROWS
    rows or more."""
    calls = []

    def spy(first, second):
        calls.append(second.dtype)
        return _block_text(first, second)

    monkeypatch.setattr(freqbin.counting, "_block_text", spy)
    rng = np.random.default_rng(rows)
    taus_ps = (-10e-9 + 1e-13 * np.arange(rows)) * 1e12
    counts = rng.poisson(4100.0, rows)
    probability = 0.5 - 0.45 * np.cos(0.37 * taus_ps) * rng.random(rows)
    for second in (counts, probability):
        _assert_same(_written(taus_ps, second), _rows(taus_ps, second))
    assert calls == ([np.int64, np.float64] if rows >= _KERNEL_ROWS else [])


@pytest.mark.parametrize("ini, zeros, below_1e3", [
    ("", False, False),
    ("fsr_ghz = 95.0\nfwhm_mhz = 200.0\n", True, False),
    ("fsr_ghz = 95.04\n", False, True),
])
def test_spectrum_at_full_extinction_writes_format(tmp_path, ini, zeros, below_1e3):
    """transmission.csv is the repr comprehension's, with dips that reach
    0 (handed to repr) or fall below 1e-3 (exponent form)."""
    path = tmp_path / "c.ini"
    path.write_text("[resonator]\nextinction = 1.0\n" + ini)
    cfg = load_config(path)
    run_scenario("spectrum", cfg, tmp_path / "o")
    freqs = cfg.transmission_sweep()
    trans = transmission(cfg.resonator, freqs)
    assert (np.any(trans == 0), np.any((trans > 0) & (trans < 1e-3))) == (zeros, below_1e3)
    expected = "frequency_thz,transmittance\n" + _rows(freqs / 1e12, trans)
    _assert_same((tmp_path / "o" / "transmission.csv").read_text(), expected)


def test_stock_transmission_reloads_bitwise(tmp_path):
    """Each value of the stock transmission.csv reads back as the float written."""
    cfg = load_config(None)
    run_scenario("spectrum", cfg, tmp_path)
    freqs = cfg.transmission_sweep()
    back = np.loadtxt(tmp_path / "transmission.csv", delimiter=",", skiprows=1)
    assert back.shape == (freqs.size, 2)
    _assert_same(back[:, 0].tobytes(), (freqs / 1e12).tobytes())
    _assert_same(back[:, 1].tobytes(), transmission(cfg.resonator, freqs).tobytes())


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
    _assert_same(path.read_text(), "".join(header) + _rows(ds.taus * 1e12, ds.counts))
    back = load_dataset(path)
    _assert_same(back.taus.tobytes(), ds.taus.tobytes())
    np.testing.assert_array_equal(back.counts, ds.counts)


def _traced(call):
    """call()'s result and its peak traced allocation above the start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("headers, layout", [(True, None), (False, None), (True, "pause"),
                                             (True, "crlf")],
                         ids=["grid_headers", "column_only", "pause_line", "crlf"])
def test_scan_scratch_does_not_grow_with_the_scan(tmp_path, monkeypatch, detector, headers,
                                                  layout):
    """From 100,001 to 800,001 points, the peak of simulate_fringe, to_csv
    and load_dataset above the arrays each returns grows by less than 1 MiB:
    they work one block at a time (a structural check, not a timing).

    What load_dataset returns holds exactly 16 bytes a point, and on the
    larger scan it peaks at most 1.6 times that, also for a file with a
    `# pause` line mid-file (one chunk read line by line) or CRLF line ends
    (every chunk on the numpy path).
    """
    if layout != "pause":
        _without_line_pass(monkeypatch)
    scratch = []
    for points in (100_001, 800_001):
        scan = ScanConfig(0.0, (points - 1) * 1e-13, 1e-13, 1.0)
        ds, simulate = _traced(lambda: simulate_fringe(flat_model(0.5), scan, detector,
                                                        8000.0, seed=3))
        assert len(ds) == points
        if not headers:
            ds = FringeDataset(ds.taus, ds.counts, ds.dwell)
        path = tmp_path / f"{points}.csv"
        _, write = _traced(lambda: ds.to_csv(path))
        if layout == "pause":
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:points // 2] + [b"# pause\n"] + lines[points // 2:]))
        elif layout == "crlf":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back, load = _traced(lambda: load_dataset(path))
        held = back.taus.nbytes + back.counts.nbytes
        assert held == 16 * points
        np.testing.assert_array_equal(back.counts, ds.counts)
        scratch.append((simulate - ds.taus.nbytes - ds.counts.nbytes, write, load - held))
    assert load <= 1.6 * held
    for name, small, large in zip(("simulate_fringe", "to_csv", "load_dataset"), *scratch):
        assert large - small < 2**20, name


@pytest.mark.parametrize("headers", [True, False], ids=["grid_headers", "column_only"])
def test_loaded_arrays_own_contiguous_memory(tmp_path, detector, headers):
    """A loaded dataset's arrays are C-contiguous and pin no record array."""
    ds = simulate_fringe(flat_model(0.5), ScanConfig(0.0, 1e-11, 1e-13, 1.0),
                         detector, 100.0, seed=4)
    if not headers:
        ds = FringeDataset(ds.taus, ds.counts, ds.dwell)
    path = tmp_path / "fringe.csv"
    ds.to_csv(path)
    back = load_dataset(path)
    for values in (back.taus, back.counts):
        assert values.flags.c_contiguous and values.base is None


def test_load_under_a_tracer_that_reads_locals(tmp_path):
    """A debugger's snapshot of load_dataset's locals holds the arrays it
    trims: the trim still takes place, and the arrays own their memory."""
    path = tmp_path / "data.csv"
    path.write_text("# dwell_s=2.0\ndelay_ps,counts\n1.5,10\n# pause\n2.5,11\n")

    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        ds = load_dataset(path)
    finally:
        sys.settrace(previous)
    assert ds.counts.tolist() == [10, 11] and ds.taus.base is None


@pytest.mark.parametrize("points", [3 * _BLOCK + 7, 1])
def test_blocked_counts_equal_one_shot_draws(detector, points):
    """Drawn block by block, the counts equal one CounterRng.poisson call
    over every mean; the means straddle the inversion/PTRS branch at 10."""
    step = 1e-13
    scan = ScanConfig(-1e-9, -1e-9 + (points - 0.6) * step, step, 1.0)
    model = flat_model(0.9)
    ds = simulate_fringe(model, scan, detector, 80.0, seed=11, accidental=2.0)
    assert len(ds) == points
    eta = detector.efficiency_signal * detector.efficiency_idler
    means = scan.dwell * (80.0 * eta * hom_multi(model, scan.grid()) + 2.0)
    assert points == 1 or (means.min() < 10.0 <= means.max())
    expected = CounterRng(11, STREAM_FRINGE).poisson(means, counter=np.arange(points))
    np.testing.assert_array_equal(ds.counts, expected)


@pytest.mark.parametrize("row, pause", [(row, pause) for pause in (False, True)
                                        for row in (0, _BLOCK - 1, _BLOCK, -1)],
                         ids=[f"{at}{suffix}" for suffix in ("", "_loadtxt")
                              for at in ("first", "block_end", "block_start", "last")])
def test_header_grid_checked_in_every_block(tmp_path, monkeypatch, detector, row, pause):
    """A delay 2 ulp off its header grid is refused wherever it lies, by
    either pass: a `# pause` line after the first row sends the first chunk
    to the per-line pass.  The clean file reloads to the grid bit for bit."""
    if not pause:
        _without_line_pass(monkeypatch)
    scan = ScanConfig(-1e-9, -1e-9 + 2 * _BLOCK * 1e-13, 1e-13, 1.0)
    ds = simulate_fringe(flat_model(0.5), scan, detector, 100.0, seed=6)
    path = tmp_path / "fringe.csv"
    ds.to_csv(path)
    head, sep, body = path.read_text().partition("delay_ps,counts\n")
    rows = body.splitlines(keepends=True)

    def write():
        path.write_text(head + sep + "".join(rows[:1] + ["# pause\n"] * pause + rows[1:]))

    write()
    _assert_same(load_dataset(path).taus.tobytes(), scan.grid().tobytes())
    taus = ds.taus.copy()
    taus[row] = np.nextafter(np.nextafter(taus[row], np.inf), np.inf)
    assert float(repr(float(taus[row] * 1e12))) * 1e-12 == taus[row]
    rows[row] = f"{float(taus[row] * 1e12)!r},{ds.counts[row]}\n"
    write()
    with pytest.raises(DomainError, match="fringe.csv.*1 ulp"):
        load_dataset(path)


def test_dataset_refuses_scalars_and_a_step_back_at_a_block_edge():
    with pytest.raises(DomainError, match="1-d"):
        FringeDataset(np.float64(1.0), np.int64(3), 1.0)
    with pytest.raises(DomainError, match="1-d"):
        FringeDataset(1.0, [3], 1.0)
    taus = np.arange(2.0 * _BLOCK)
    taus[_BLOCK] = taus[_BLOCK - 1]
    with pytest.raises(DomainError, match="increasing"):
        FringeDataset(taus, np.zeros(taus.size, np.int64), 1.0)


@pytest.mark.parametrize("first, second", [(10, 5), (2000, 1500)])
def test_write_rows_refuses_unequal_columns(first, second):
    with pytest.raises(DomainError, match=f"{first} and {second}"):
        write_rows(io.StringIO(), np.zeros(first), np.zeros(second, np.int64))


@pytest.mark.parametrize("text, taus_ps, counts", [
    ("# dwell_s=2.0\n\ndelay_ps,counts\n\n1.5,10\n\n2.5,11\n\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\r\ndelay_ps,counts\r\n1.5,10\r\n2.5,11\r\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\ndelay_ps,counts\n1.5,10\n# pause\n2.5,11\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\n1.5,10\n2.5,11\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\ndelay_ps,counts\n 1.5 , 10 \n2.5 ,11\n", [1.5, 2.5], [10, 11]),
    ("# dwell_s=2.0\ndelay_ps,counts\n1.5,9007199254740993\n", [1.5], [2**53 + 1]),
    ("# dwell_s=2.0\ndelay_ps,counts\n", [], []),
    ("# dwell_s=2.0\n\n# note\n\n# dwell_s=2.0\n#\n\ndelay_ps,counts\n1.5,10\n",
     [1.5], [10]),
    ("# dwell_s=2.0\ndelay_ps,counts\n1.5,10\n# dwell_s=9.0\n# late=1\n2.5,11\n",
     [1.5, 2.5], [10, 11]),
], ids=["blank_lines", "crlf", "body_comment", "no_column_line", "spaces",
        "count_above_2_53", "no_rows", "blank_and_comment_headers", "body_key_value"])
def test_load_dataset_accepts_layouts(tmp_path, text, taus_ps, counts):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_dataset(path)
    np.testing.assert_array_equal(ds.taus, np.array(taus_ps) * 1e-12)
    assert ds.counts.tolist() == counts
    assert ds.dwell == 2.0
    assert "late" not in ds.metadata


@pytest.mark.parametrize("body, match", [
    ("1.5,ten\n", "ten"),
    ("1.5,10,3\n", "3 were found"),
    ("x1.5,10\n", "x1.5"),
    ("1.5,10.5\n", "10.5"),
    ("1.5,-3\n", "non-negative"),
    ("2.5,10\n1.5,11\n", "increasing"),
    ("nan,10\n", "finite"),
    ("1.5,10\r2.5,11\r", "3 were found"),
    ("1.5,1_0\n", "line 3 '1.5,1_0': '_' digit separators"),
], ids=["count", "third_column", "delay", "fractional_count", "negative_count",
        "unordered", "nan_delay", "bare_cr", "underscore_digits"])
def test_malformed_csv_rejected_naming_file(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# dwell_s=2.0\ndelay_ps,counts\n" + body.encode())
    with pytest.raises(DomainError, match=match) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def test_malformed_row_named_by_its_line_in_the_file(tmp_path):
    """The bad row's line number counts the headers and every line of the
    earlier chunks, rows and comments alike."""
    rows = [f"{i}.5,{i}\n" for i in range(6 * _BLOCK)]
    path = tmp_path / "bad.csv"
    path.write_text("# dwell_s=2.0\n# note=x\ndelay_ps,counts\n" + "".join(
        rows[:10] + ["# pause\n", "\n"] + rows[10:] + ["1.5,ten\n"]))
    assert path.stat().st_size > 2 * 32 * _BLOCK  # three chunks
    with pytest.raises(DomainError, match=f"line {6 * _BLOCK + 6} '1.5,ten'"):
        load_dataset(path)


@pytest.mark.parametrize("header", ["", "# dwell_s=soon\n"], ids=["missing", "bad"])
def test_dwell_header_required(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "delay_ps,counts\n1.5,10\n")
    with pytest.raises(DomainError, match="dwell_s|soon") as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def _without_line_pass(monkeypatch):
    """Make load_dataset fail if it hands a chunk to the per-line pass."""
    def refuse(*args):
        raise AssertionError("load_dataset read a chunk line by line")
    monkeypatch.setattr(freqbin.counting, "_parse_lines", refuse)


@st.composite
def delay_texts(draw):
    """A delay as to_csv writes it: sign, digits, point; 1 to 19 digits of
    mantissa below 2**62, up to 22 after the point, leading zeros."""
    digits = draw(st.integers(1, 19))
    low = 10 ** (digits - 1) if digits > 1 else 0
    m = draw(st.integers(low, min(10**digits, 2**62) - 1)
             | st.integers(max(low, 2**53 - 99), max(low, 2**53 - 99) + 199))
    frac = draw(st.integers(1, 22))
    text = str(m).zfill(max(len(str(m)), frac + 1) + draw(st.integers(0, 2)))
    return "-" * draw(st.booleans()) + text[:-frac] + "." + text[-frac:]


@given(st.lists(delay_texts(), min_size=1, max_size=40))
@example(texts=["0.0", "-0.0"])
@example(texts=["-0.0", "0.0"])
@settings(max_examples=300, deadline=None)
def test_column_delays_equal_float_of_their_text(tmp_path_factory, texts):
    """Every delay read from the ps column equals float(text) * 1e-12.
    0.0 and -0.0 share one delay, so the expected sign is that of the text
    written, not of the key."""
    by_value = {float(t) * 1e-12: t for t in texts}  # one text per delay
    values = sorted(by_value)
    path = tmp_path_factory.mktemp("column") / "column.csv"
    path.write_text("# dwell_s=1.0\ndelay_ps,counts\n"
                    + "".join(f"{by_value[v]},{i}\n" for i, v in enumerate(values)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_line_pass(monkeypatch)
        ds = load_dataset(path)
    expected = np.array([float(by_value[v]) * 1e-12 for v in values])
    _assert_same(ds.taus.tobytes(), expected.tobytes())


@pytest.mark.parametrize("text", [
    "9007199254740993.0", "9007199254740992.9", "9007199254740993.1",
    "4503599627370496.5", "4503599627370496.4", "4503599627370496.6",
    "2251799813685248.25", "2251799813685248.24", "2251799813685248.26",
    "2251799813685248.75", "2251799813685248.74", "2251799813685248.76",
    "0.0", "0.00012345678901234567",
])
@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
def test_column_delay_ties_round_as_float(tmp_path, monkeypatch, text, sign):
    """Exact ties, and 1 in the last digit either side, round half-even."""
    text = sign + text
    path = tmp_path / "tie.csv"
    path.write_text(f"# dwell_s=1.0\ndelay_ps,counts\n{text},7\n")
    _without_line_pass(monkeypatch)
    ds = load_dataset(path)
    assert ds.taus.tobytes() == np.array([float(text) * 1e-12]).tobytes()
    assert ds.counts.tolist() == [7]


def test_one_chunk_mixes_plain_corrected_and_tied_delays(tmp_path, monkeypatch):
    """Plain rows, rows whose quotient fl(M) / 10**F is 1 ulp off (the
    check-correct pass mends them; the first is a delay of the 30 s dense
    grid) and exact ties read back in one chunk as float(text) * 1e-12, and
    only the ties reach float()."""
    corrected = ["-9702.010471574271", "-3763.3709597902907", "236.43249400513378"]
    for text in corrected:
        digits, frac = text.lstrip("-").replace(".", ""), len(text.partition(".")[2])
        assert float(int(digits)) / 10.0**frac != abs(float(text))
    texts = ["-4503599627370496.5", *corrected[:2], "-1.5", "0.0", "0.1", corrected[2],
             "1234.5678", "9007199254740993.0"]
    path = tmp_path / "mixed.csv"
    path.write_text("# dwell_s=1.0\ndelay_ps,counts\n"
                    + "".join(f"{t},{i}\n" for i, t in enumerate(texts)))
    parsed = []

    def recording_float(x):
        if isinstance(x, bytes):
            parsed.append(x)
        return float(x)

    _without_line_pass(monkeypatch)
    monkeypatch.setattr(freqbin.counting, "float", recording_float, raising=False)
    ds = load_dataset(path)
    assert ds.taus.tobytes() == np.array([float(t) * 1e-12 for t in texts]).tobytes()
    assert ds.counts.tolist() == list(range(len(texts)))
    assert sorted(parsed) == [b"4503599627370496.5", b"9007199254740993.0"]


@pytest.mark.parametrize("row", [None, "# pause\n", "1e-05,4000\n"],
                         ids=["to_csv_rows", "comment_row", "exponent_delay"])
def test_multi_chunk_file_reads_as_loadtxt(tmp_path, monkeypatch, row):
    """A 200,001-row headerless file reads as np.loadtxt reads it: by the
    chunk parser, or, for the chunk holding a line near row 150,000 that is
    outside to_csv's form, by the per-line pass.  The delays cross zero
    there."""
    taus = -15e-9 + 1e-13 * np.arange(200_001)
    taus[150_000] = 0.0  # not 2e-21 s, which repr writes in exponent form
    counts = np.random.default_rng(5).poisson(4000.0, taus.size)
    path = tmp_path / "dense.csv"
    FringeDataset(taus, counts, 1.0).to_csv(path)
    if row is None:
        _without_line_pass(monkeypatch)
    else:
        lines = path.read_text().splitlines(keepends=True)
        at = 2 + 150_000  # dwell_s and delay_ps lines, then row 150,000
        lines[at:at + 1] = [lines[at], row] if row.startswith("#") else [row]
        path.write_text("".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_dataset(path)
    rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=2,
                      dtype=[("t", "f8"), ("n", "i8")])
    _assert_same(ds.taus.tobytes(), (rows["t"] * 1e-12).tobytes())
    np.testing.assert_array_equal(ds.counts, rows["n"])


@pytest.mark.parametrize("headers", [True, False], ids=["grid_headers", "column_only"])
def test_zero_crossing_grid_reloads_bit_for_bit(tmp_path, monkeypatch, detector, headers):
    """to_csv writes the delay nearest zero of a -15 to 5 ns grid in exponent
    form; only the chunk holding it is read line by line, and the file
    reloads bit for bit: the grid, or each ps value written times 1e-12."""
    scan = ScanConfig(-15e-9, 5e-9, 1e-13, 1.0)
    ds = simulate_fringe(flat_model(0.5), scan, detector, 100.0, seed=9)
    if not headers:
        ds = FringeDataset(ds.taus, ds.counts, ds.dwell)
    path = tmp_path / "zero.csv"
    ds.to_csv(path)
    assert re.search(r"\n-?\d\.\d+e-\d+,", path.read_text())
    chunks = []

    def spy(text, line):
        chunks.append(line)
        return _parse_lines(text, line)

    monkeypatch.setattr(freqbin.counting, "_parse_lines", spy)
    back = load_dataset(path)
    expected = scan.grid() if headers else ds.taus * 1e12 * 1e-12
    _assert_same(back.taus.tobytes(), expected.tobytes())
    np.testing.assert_array_equal(back.counts, ds.counts)
    assert len(chunks) == 1


@pytest.mark.parametrize("row, taus_ps, counts", [
    ("12345678901234567890.5,3", [12345678901234567890.5], [3]),
    ("1.5,9223372036854775807", [1.5], [2**63 - 1]),
    ("1.5,9223372036854775808", None, "9223372036854775808"),
], ids=["delay_digits_past_2_62", "count_2_63_minus_1", "count_2_63"])
def test_digits_past_int64_read_as_loadtxt(tmp_path, row, taus_ps, counts):
    """numpy reads an integer past int64 as 2**63 - 1: such rows go to the
    per-line pass, which refuses a count past int64."""
    path = tmp_path / "data.csv"
    path.write_text(f"# dwell_s=2.0\ndelay_ps,counts\n{row}\n")
    if taus_ps is None:
        with pytest.raises(DomainError, match=counts):
            load_dataset(path)
        return
    ds = load_dataset(path)
    assert ds.taus.tolist() == [t * 1e-12 for t in taus_ps] and ds.counts.tolist() == counts


def test_last_row_without_newline_is_read(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("# dwell_s=2.0\ndelay_ps,counts\n1.5,10\n2.5,11")
    _without_line_pass(monkeypatch)
    ds = load_dataset(path)
    assert ds.taus.tolist() == [1.5e-12, 2.5e-12] and ds.counts.tolist() == [10, 11]


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


@pytest.mark.parametrize("args, name", [
    ((math.nan, 1.0, 1e-9), "singles rates"),
    ((1.0, math.inf, 1e-9), "singles rates"),
    ((1.0, 1.0, math.inf), "window"),
    ((1.0, 1.0, math.nan), "window"),
], ids=["signal_nan", "idler_inf", "window_inf", "window_nan"])
def test_accidental_rate_refuses_non_finite(args, name):
    with pytest.raises(DomainError, match=f"{name} must be non-negative and finite"):
        accidental_rate(*args)


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


@pytest.mark.parametrize("total_rate, dwell, name", [
    (math.nan, 1.0, "total_rate"), (math.inf, 1.0, "total_rate"),
    (1.0, math.nan, "dwell"), (1.0, math.inf, "dwell"),
], ids=["rate_nan", "rate_inf", "dwell_nan", "dwell_inf"])
def test_basis_counts_refuse_non_finite(total_rate, dwell, name):
    with pytest.raises(DomainError, match=f"{name} must be non-negative and finite"):
        computational_basis_counts(0.5, total_rate, dwell, 0)


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
