"""Resonator comb model: line grid, transmission, Q, pair arithmetic."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

import freqbin.comb
from freqbin.comb import (
    CombLine,
    FrequencyPair,
    ResonatorModel,
    ghz,
    mhz,
    pair_for_index,
    q_factor,
    resonance_lines,
    thz,
    transmission,
)
from freqbin.config import load_config
from freqbin.counting import MAX_SCAN_POINTS
from freqbin.errors import DomainError

MODEL = load_config().resonator


def test_unit_helpers_are_exact_integers():
    assert thz(193.5) == 193_500_000_000_000
    assert ghz(99.03) == 99_030_000_000
    assert mhz(190.41) == 190_410_000
    assert isinstance(thz(193.5), int)


def test_default_model_parameters():
    assert MODEL.pump_frequency == thz(193.5)
    assert MODEL.fsr == ghz(99.03)
    assert MODEL.fwhm == mhz(190.41)
    assert MODEL.extinction == 0.9


@pytest.mark.parametrize("band, expected_indices", [
    ((thz(193.4), thz(193.6)), [-1, 0, 1]),
    ((thz(192.0), thz(195.0)), list(range(-15, 16))),
])
def test_resonance_lines_band_examples(model, band, expected_indices):
    lines = resonance_lines(model, band)
    assert [line.index for line in lines] == expected_indices
    centers = [line.center_frequency for line in lines]
    assert centers == sorted(centers)


def test_resonance_lines_empty_gap(model):
    lo = model.pump_frequency + ghz(10)
    hi = model.pump_frequency + ghz(80)
    assert resonance_lines(model, (lo, hi)) == []


def test_resonance_lines_invalid_band(model):
    with pytest.raises(DomainError):
        resonance_lines(model, (thz(194.0), thz(193.0)))


class _Built(Exception):
    """Raised where resonance_lines builds its first line."""


def test_resonance_lines_refuses_a_band_of_too_many_lines(model, monkeypatch):
    # One CombLine per FSR: the count k_max - k_min + 1 is checked before any
    # line is built, so these bands never build one.
    def built(*args):
        raise _Built

    monkeypatch.setattr(freqbin.comb, "CombLine", built)
    lo = model.pump_frequency
    with pytest.raises(DomainError, match=f"{MAX_SCAN_POINTS + 1:,} comb lines"):
        resonance_lines(model, (lo, lo + MAX_SCAN_POINTS * model.fsr))  # k = 0 .. MAX
    with pytest.raises(_Built):
        resonance_lines(model, (lo, lo + (MAX_SCAN_POINTS - 1) * model.fsr))
    with pytest.raises(DomainError, match="finite"):
        resonance_lines(model, (lo, float("inf")))


def test_transmission_on_resonance(model):
    assert transmission(model, model.pump_frequency) == pytest.approx(0.1, abs=1e-12)


def test_transmission_half_width_point():
    m = ResonatorModel(thz(193.5), ghz(99.03), mhz(190.41), extinction=1.0)
    f = m.pump_frequency + m.fwhm / 2
    assert transmission(m, f) == pytest.approx(0.5, abs=1e-12)


def test_transmission_mid_gap_near_unity(model):
    f = model.pump_frequency + model.fsr / 2
    assert transmission(model, f) >= 0.999


def test_transmission_vectorized_and_symmetric(model):
    offsets = np.linspace(0, 2 * model.fwhm, 64)
    up = transmission(model, model.pump_frequency + offsets)
    down = transmission(model, model.pump_frequency - offsets)
    np.testing.assert_allclose(up, down, rtol=0, atol=1e-12)
    assert np.all(up >= up[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_transmission_rejects_non_finite_and_nonpositive(model, bad):
    with pytest.raises(DomainError, match="finite and positive"):
        transmission(model, bad)
    with pytest.raises(DomainError, match="finite and positive"):
        transmission(model, np.array([model.pump_frequency, bad]))


def test_transmission_periodic_over_fsr(model):
    f = model.pump_frequency + mhz(40)
    assert transmission(model, f) == pytest.approx(
        transmission(model, f + 3 * model.fsr), abs=1e-9)


@pytest.mark.parametrize("center, fwhm, expected, rel", [
    (thz(193.5), mhz(175.9), 1.100e6, 1e-3),
    (thz(193.5), mhz(190.41), 1.016e6, 1e-3),
    (12345.0, 12345.0, 1.0, 1e-12),
])
def test_q_factor_examples(center, fwhm, expected, rel):
    assert q_factor(center, fwhm) == pytest.approx(expected, rel=rel)


def test_q_factor_rejects_nonpositive():
    with pytest.raises(DomainError):
        q_factor(0.0, 1.0)
    with pytest.raises(DomainError):
        q_factor(1.0, -2.0)


def test_pair_2_is_the_wss_channel_pair(model):
    pair = pair_for_index(model, 2)
    assert pair.signal.center_frequency == 193_301_940_000_000
    assert pair.idler.center_frequency == 193_698_060_000_000
    assert pair.detuning == ghz(396.12)


@pytest.mark.parametrize("m, detuning", [
    (5, ghz(990.3)),
    (15, thz(2.9709)),
])
def test_pair_detunings(model, m, detuning):
    assert pair_for_index(model, m).detuning == detuning


def test_degenerate_pair_rejected(model):
    with pytest.raises(DomainError):
        pair_for_index(model, 0)


def test_pair_line_indices_enforced(model):
    pair = pair_for_index(model, 3)
    with pytest.raises(DomainError):
        FrequencyPair(4, pair.signal, pair.idler)


@given(m=st.integers(min_value=1, max_value=200))
def test_energy_conservation_exact(m):
    pair = pair_for_index(MODEL, m)
    # Integer hertz storage keeps the symmetry exact, not merely close.
    assert pair.signal.center_frequency + pair.idler.center_frequency \
        == 2 * MODEL.pump_frequency
    assert pair.detuning == 2 * m * MODEL.fsr


@given(lo_k=st.integers(min_value=-20, max_value=19),
       width_k=st.integers(min_value=1, max_value=10),
       margin=st.integers(min_value=1, max_value=30))
def test_subband_lines_are_a_subsequence(lo_k, width_k, margin):
    model = MODEL
    lo = model.pump_frequency + lo_k * model.fsr - ghz(1)
    hi = lo + width_k * model.fsr + ghz(2)
    inner = resonance_lines(model, (lo, hi))
    outer = resonance_lines(model, (lo - margin * model.fsr, hi + margin * model.fsr))
    inner_ids = [line.index for line in inner]
    outer_ids = [line.index for line in outer]
    assert set(inner_ids) <= set(outer_ids)
    pos = [outer_ids.index(k) for k in inner_ids]
    assert pos == sorted(pos)


def test_q_constant_across_comb(model):
    lines = resonance_lines(model, (thz(192.0), thz(195.0)))
    assert {line.fwhm for line in lines} == {model.fwhm}
    q_pump = q_factor(model.pump_frequency, model.fwhm)
    for line in lines:
        # Constant linewidth: Q varies only through the +-0.8% center spread.
        assert q_factor(line.center_frequency, line.fwhm) \
            == pytest.approx(q_pump, rel=0.01)


def test_model_validation():
    with pytest.raises(DomainError):
        ResonatorModel(thz(193.5), 0, mhz(190.41), 0.9)
    with pytest.raises(DomainError):
        ResonatorModel(thz(193.5), mhz(100), mhz(190.41), 0.9)  # fwhm >= fsr
    with pytest.raises(DomainError):
        ResonatorModel(thz(193.5), ghz(99.03), mhz(190.41), extinction=1.5)
    with pytest.raises(DomainError):
        CombLine(0, -5, mhz(190.41))
