"""WSS filter bank: routing, pair selection, capture, singles scan."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import freqbin.wss
from freqbin.comb import ghz, pair_for_index, thz
from freqbin.config import load_config
from freqbin.counting import MAX_SCAN_POINTS
from freqbin.errors import ConfigurationError, DomainError
from freqbin.wss import (
    FilterProgram,
    Passband,
    captured_fraction,
    route_lines,
    select_pairs,
    singles_spectrum_scan,
)

MODEL = load_config().resonator
WIDTH = ghz(20)


def pair_lines(model, indices):
    out = []
    for m in indices:
        pair = pair_for_index(model, m)
        out += [pair.signal, pair.idler]
    return out


def test_two_channel_program_routes_pair_2(model):
    program = FilterProgram((
        Passband(thz(193.302), ghz(20), 1),
        Passband(thz(193.698), ghz(20), 2),
    ))
    routed = route_lines(program, pair_lines(model, range(1, 7)))
    assert sorted(routed) == [1, 2]
    assert [line.index for line in routed[1]] == [-2]
    assert [line.index for line in routed[2]] == [2]


def test_midgap_passband_routes_nothing(model):
    program = FilterProgram((
        Passband(model.pump_frequency + model.fsr // 2, ghz(20), 1),
    ))
    assert route_lines(program, pair_lines(model, range(1, 16))) == {}


def test_widened_passbands_multiplex_pairs_2_to_5(model):
    lo_sig = pair_for_index(model, 5).signal.center_frequency - ghz(10)
    hi_sig = pair_for_index(model, 2).signal.center_frequency + ghz(10)
    lo_idl = pair_for_index(model, 2).idler.center_frequency - ghz(10)
    hi_idl = pair_for_index(model, 5).idler.center_frequency + ghz(10)
    program = FilterProgram((
        Passband((lo_sig + hi_sig) // 2, hi_sig - lo_sig, 1),
        Passband((lo_idl + hi_idl) // 2, hi_idl - lo_idl, 2),
    ))
    routed = route_lines(program, pair_lines(model, range(1, 16)))
    assert sorted(line.index for line in routed[1]) == [-5, -4, -3, -2]
    assert sorted(line.index for line in routed[2]) == [2, 3, 4, 5]


def test_overlapping_passbands_rejected():
    with pytest.raises(ConfigurationError):
        FilterProgram((
            Passband(thz(193.302), ghz(20), 1),
            Passband(thz(193.310), ghz(20), 2),
        ))
    # Same-port overlap is just as invalid.
    with pytest.raises(ConfigurationError):
        FilterProgram((
            Passband(thz(193.302), ghz(20), 1),
            Passband(thz(193.312), ghz(20), 1),
        ))


def test_passband_validation():
    with pytest.raises(DomainError):
        Passband(thz(193.5), 0, 1)


def test_select_pairs_single(model):
    program = select_pairs(model, {2}, WIDTH)
    assert len(program.passbands) == 2
    by_port = {band.output_port: band for band in program.passbands}
    assert by_port[1].contains(pair_for_index(model, 2).signal.center_frequency)
    assert by_port[2].contains(pair_for_index(model, 2).idler.center_frequency)
    assert by_port[1].width == WIDTH


def test_select_pairs_1_centers(model):
    program = select_pairs(model, {1}, WIDTH)
    centers = sorted(band.center for band in program.passbands)
    assert centers == [193_400_970_000_000, 193_599_030_000_000]


def test_select_pairs_14_pair_program(model):
    program = select_pairs(model, set(range(2, 16)), WIDTH)
    routed = route_lines(program, pair_lines(model, range(1, 17)))
    assert sorted(line.index for line in routed[1]) == list(range(-15, -1))
    assert sorted(line.index for line in routed[2]) == list(range(2, 16))


def test_select_pairs_empty_rejected(model):
    with pytest.raises(DomainError):
        select_pairs(model, set(), WIDTH)


def test_select_pairs_route_roundtrip_exhaustive(model):
    lines = pair_lines(model, range(1, 11))
    for r in range(1, 11):
        for indices in itertools.combinations(range(1, 11), r):
            program = select_pairs(model, indices, WIDTH)
            routed = route_lines(program, lines)
            assert sorted(line.index for line in routed.get(1, [])) \
                == [-m for m in reversed(indices)]
            assert sorted(line.index for line in routed.get(2, [])) \
                == list(indices)


@given(indices=st.sets(st.integers(min_value=1, max_value=15), min_size=1))
@settings(max_examples=60)
def test_select_pairs_route_roundtrip_property(indices):
    model = MODEL
    program = select_pairs(model, indices, WIDTH)
    routed = route_lines(program, pair_lines(model, range(1, 16)))
    want = sorted(indices)
    assert sorted(line.index for line in routed.get(1, [])) == [-m for m in reversed(want)]
    assert sorted(line.index for line in routed.get(2, [])) == want


def test_routing_is_partial_function(model):
    program = select_pairs(model, {3, 7}, WIDTH)
    lines = pair_lines(model, range(1, 16))
    routed = route_lines(program, lines)
    seen = [line for port_lines in routed.values() for line in port_lines]
    assert len(seen) == len(set((line.index) for line in seen))
    assert set(line.index for line in seen) <= set(line.index for line in lines)


def test_captured_fraction_full_and_none(model):
    line = pair_for_index(model, 2).signal
    c = line.center_frequency
    assert captured_fraction(line, c - ghz(10), c + ghz(10)) > 0.98
    # Beyond 100 linewidths the tail is cut to exactly zero.
    assert captured_fraction(line, c + ghz(30), c + ghz(50)) == 0.0
    assert captured_fraction(line, c + ghz(1), c + ghz(1)) == 0.0


def test_captured_fraction_half(model):
    import math

    line = pair_for_index(model, 2).signal
    c = line.center_frequency
    half = captured_fraction(line, c, c + ghz(10))
    expected = math.atan(2 * ghz(10) / line.fwhm) / math.pi
    assert half == pytest.approx(expected, abs=1e-12)
    assert half == pytest.approx(0.5, abs=5e-3)


def test_scan_far_from_lines_is_all_zero(model):
    band = (model.pump_frequency + ghz(30), model.pump_frequency + ghz(60))
    out = singles_spectrum_scan(model, band, ghz(5), ghz(10),
                                line_flux=1e6, dark_rate=0.0, dwell=1.0, seed=3)
    assert all(n == 0 for _, n in out)


def test_scan_period_three_pattern(model):
    # Step 33.01 GHz against a 99.03 GHz FSR: every third center on resonance.
    band = (model.pump_frequency, model.pump_frequency + 8 * ghz(33.01))
    out = singles_spectrum_scan(model, band, ghz(33.01), ghz(20),
                                line_flux=2000.0, dark_rate=0.0, dwell=1.0, seed=5)
    assert len(out) == 9
    for i, (_, counts) in enumerate(out):
        if i % 3 == 0:
            assert counts > 1000
        else:
            assert counts == 0


def test_scan_on_resonance_mean(model):
    # Wide window around one resonance captures nearly the full line flux.
    band = (model.pump_frequency - 1, model.pump_frequency + 1)
    flux, dwell = 5000.0, 4.0
    out = singles_spectrum_scan(model, band, ghz(1), ghz(20),
                                line_flux=flux, dark_rate=100.0, dwell=dwell, seed=11)
    mean = flux + 100.0
    for _, counts in out:
        assert abs(counts - dwell * mean) < 5 * (dwell * mean) ** 0.5 + dwell * mean * 0.01


def test_scan_determinism(model):
    band = (thz(193.0), thz(194.0))
    kwargs = dict(step=ghz(33.01), width=ghz(20), line_flux=2000.0,
                  dark_rate=100.0, dwell=1.0, seed=42)
    a = singles_spectrum_scan(model, band, **kwargs)
    b = singles_spectrum_scan(model, band, **kwargs)
    assert a == b


def test_scan_argument_validation(model):
    band = (thz(193.0), thz(194.0))
    with pytest.raises(DomainError):
        singles_spectrum_scan(model, (band[1], band[0]), ghz(33), ghz(20),
                              1.0, 1.0, 1.0, 0)
    with pytest.raises(DomainError):
        singles_spectrum_scan(model, band, 0, ghz(20), 1.0, 1.0, 1.0, 0)
    with pytest.raises(DomainError):
        singles_spectrum_scan(model, band, ghz(33), ghz(20), -1.0, 1.0, 1.0, 0)


class _Reached(Exception):
    """Raised where a scan gets past its checks, before it builds anything."""


def test_scan_refuses_a_sub_hertz_step_or_too_many_centers(model, monkeypatch):
    # The centers advance by int(step): 0.5 Hz would never advance, and 1 Hz
    # over 1 THz would build 10**12 centers.  Counts are computed here, never
    # built: the comb lines come after both checks, and this patch stops there.
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(freqbin.wss, "resonance_lines", reached)
    lo, step = thz(193.0), ghz(1)
    rest = (ghz(20), 1.0, 1.0, 1.0, 0)
    for bad in (0.5, 0.999, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="at least 1 Hz"):
            singles_spectrum_scan(model, (lo, lo + ghz(100)), bad, *rest)
    with pytest.raises(DomainError, match="1,000,000,000,001 centers"):
        singles_spectrum_scan(model, (thz(193.0), thz(194.0)), 1, *rest)
    with pytest.raises(DomainError, match=f" {2**1000:,} centers"):  # past sys.maxsize
        singles_spectrum_scan(model, (1.0, 2.0**1000), 1, *rest)
    # lo + k step for k = 0 .. MAX_SCAN_POINTS: one center above the bound
    with pytest.raises(DomainError, match=f"{MAX_SCAN_POINTS + 1:,} centers"):
        singles_spectrum_scan(model, (lo, lo + MAX_SCAN_POINTS * step), step, *rest)
    with pytest.raises(_Reached):
        singles_spectrum_scan(model, (lo, lo + (MAX_SCAN_POINTS - 1) * step), step, *rest)
    with pytest.raises(DomainError, match="finite"):
        singles_spectrum_scan(model, (lo, float("inf")), step, *rest)
