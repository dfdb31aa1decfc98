"""Configuration loading, validation, and passband string handling."""

import math

import pytest

from freqbin.comb import ghz
from freqbin.config import format_passbands, load_config, parse_passbands
from freqbin.counting import ScanConfig
from freqbin.errors import ConfigurationError
from freqbin.hom import revival_period


class TestDefaults:
    def test_resonator_defaults(self):
        cfg = load_config()
        assert cfg.resonator.pump_frequency == 193_500_000_000_000
        assert cfg.resonator.fsr == 99_030_000_000
        assert cfg.resonator.fwhm == 190_410_000
        assert cfg.resonator.extinction == 0.9

    def test_detector_and_source_defaults(self):
        cfg = load_config()
        assert cfg.detector.efficiency_signal == 0.5
        assert cfg.detector.efficiency_idler == 0.5
        assert cfg.detector.dark_rate == 100.0
        assert cfg.detector.coincidence_window == 1e-9
        assert cfg.pair_rate == 67.0
        assert cfg.singles_signal == 10000.0

    def test_state_and_scan_defaults(self):
        cfg = load_config()
        assert cfg.visibility == 0.84
        assert cfg.tau0 == 0.3e-9
        assert cfg.theta == 0.0
        assert cfg.coarse_step == 2e-12
        assert cfg.fine_step == 0.1e-12
        assert cfg.span == 2.4e-9
        assert cfg.dwell_single == 60.0
        assert cfg.dwell_multi == 30.0

    def test_tomography_defaults(self):
        tomo = load_config().tomography
        assert tomo.balance == 0.701
        assert tomo.sigma_balance == 0.005
        assert tomo.visibility == 0.7713
        assert tomo.sigma_visibility == 0.0193
        assert tomo.phase == -0.1168
        assert tomo.sigma_phase == 0.1094
        assert tomo.theta_target == 0.0
        assert tomo.samples == 20000
        assert tomo.total_rate == 140.68

    def test_wss_and_seed_defaults(self):
        cfg = load_config()
        assert cfg.channel_width == 20_000_000_000
        assert cfg.scan_step == 33_010_000_000
        assert cfg.scan_band == (193_000_000_000_000, 194_000_000_000_000)
        assert cfg.seed == 12345

    def test_empty_file_equals_no_file(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path) == load_config(None)


class TestFileOverrides:
    def test_overrides_apply_and_rest_stay_default(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[state]\nvisibility = 0.9\ntheta_deg = 90\n[run]\nseed = 7\n"
        )
        cfg = load_config(path)
        assert cfg.visibility == 0.9
        assert cfg.theta == pytest.approx(math.pi / 2)
        assert cfg.seed == 7
        assert cfg.tau0 == 0.3e-9
        assert cfg.resonator.fsr == 99_030_000_000

    def test_raw_echo_reflects_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 99\n")
        raw = dict(load_config(path).raw)
        assert dict(raw["run"])["seed"] == "99"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[typo]\nseed = 1\n")
        with pytest.raises(ConfigurationError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseeed = 1\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[state]\nvisibility = bright\n")
        with pytest.raises(ConfigurationError, match="expected a number"):
            load_config(path)

    def test_invalid_physics_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[state]\nvisibility = 1.5\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_negative_dwell_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[scan]\ndwell_single_s = -1\n")
        with pytest.raises(ConfigurationError, match="must be positive"):
            load_config(path)

    def test_bad_band_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[wss]\nscan_band_thz = 194.0,193.0\n")
        with pytest.raises(ConfigurationError, match="low must be below high"):
            load_config(path)

    def test_missing_section_header_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("seed = 1\n")
        with pytest.raises(ConfigurationError, match="malformed config"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read config"):
            load_config(tmp_path / "absent.ini")


@pytest.mark.parametrize("name", ["coarse", "fine_zero", "fine_offset", "pair", "multi"])
def test_stock_windows_equal_inline_grids(name):
    """Each window equals, bitwise, the ScanConfig the scenarios once built inline."""
    cfg = load_config()
    period = revival_period(cfg.resonator.fsr)
    t = round(cfg.tau0 / period) * period
    inline = {
        "coarse": ScanConfig(0.0, cfg.span, cfg.coarse_step, cfg.dwell_single),
        "fine_zero": ScanConfig(0.0, 0.0 + cfg.fine_span, cfg.fine_step, cfg.dwell_single),
        "fine_offset": ScanConfig(cfg.fine_offset, cfg.fine_offset + cfg.fine_span,
                                  cfg.fine_step, cfg.dwell_single),
        "pair": ScanConfig(t - cfg.fine_span / 2.0, t + cfg.fine_span / 2.0,
                           cfg.fine_step, cfg.dwell_single),
        "multi": ScanConfig(t - cfg.multi_span / 2.0, t + cfg.multi_span / 2.0,
                            cfg.fine_step, cfg.dwell_multi),
    }[name]
    window = cfg.delay_scan(name)
    assert window == inline
    assert window.grid().tobytes() == inline.grid().tobytes()


class TestPassbandStrings:
    def test_parse_two_channels(self):
        program = parse_passbands("193301.94,20,1; 193698.06,20,2")
        assert len(program.passbands) == 2
        first, second = program.passbands
        assert first.center == ghz(193301.94)
        assert first.width == ghz(20)
        assert first.output_port == 1
        assert second.output_port == 2

    def test_format_parse_round_trip(self):
        program = parse_passbands("193301.94,20,1; 193698.06,20,2")
        assert parse_passbands(format_passbands(program)) == program

    def test_trailing_separator_tolerated(self):
        program = parse_passbands("193301.94,20,1;")
        assert len(program.passbands) == 1

    @pytest.mark.parametrize(
        "text",
        ["", "193301.94,20", "193301.94,20,1,4", "a,b,c", "193301.94,w,1",
         "nan,20,1", "1e300,20,1", "193301.94,inf,1"],
    )
    def test_malformed_entries_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_passbands(text)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_passbands("193301.94,20,1; 193305.0,20,1")
