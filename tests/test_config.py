"""Configuration loading, validation, the README defaults and passband strings."""

import configparser
import dataclasses
import math
import operator
import pickle
from pathlib import Path

import pytest

from freqbin.comb import ghz
from freqbin.config import (_KEYS, DEFAULTS, ScenarioConfig, TomographyInputs, format_passbands,
                            load_config)
from freqbin.counting import ScanConfig
from freqbin.errors import ConfigurationError
from freqbin.hom import revival_period
from freqbin.wss import FilterProgram, Passband


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

    def test_readme_ini_block_equals_defaults(self):
        # The README's example config is the one copy of the stock values
        # outside `_KEYS`; it must not drift from them.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(block)
        assert {s: dict(parser.items(s)) for s in parser.sections()} == DEFAULTS


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


class TestGeneratedClasses:
    """ScenarioConfig and TomographyInputs are built from the rows of `_KEYS`."""

    # (section, key, text, attribute, converted value): every key, none at
    # its default, no two converted values equal, so two rows that swapped
    # their fields would put a value on the wrong attribute.
    EVERY_KEY = [
        ("resonator", "pump_thz", "194.0", "resonator.pump_frequency", 194_000_000_000_000),
        ("resonator", "fsr_ghz", "100.0", "resonator.fsr", 100_000_000_000),
        ("resonator", "fwhm_mhz", "200.0", "resonator.fwhm", 200_000_000),
        ("resonator", "extinction", "0.8", "resonator.extinction", 0.8),
        ("detector", "efficiency_signal", "0.6", "detector.efficiency_signal", 0.6),
        ("detector", "efficiency_idler", "0.4", "detector.efficiency_idler", 0.4),
        ("detector", "dark_rate_hz", "50.0", "detector.dark_rate", 50.0),
        ("detector", "coincidence_window_ns", "0.5", "detector.coincidence_window", 5e-10),
        ("source", "pair_rate_hz", "80.0", "pair_rate", 80.0),
        ("source", "singles_signal_hz", "12000.0", "singles_signal", 12000.0),
        ("source", "singles_idler_hz", "9000.0", "singles_idler", 9000.0),
        ("state", "visibility", "0.9", "visibility", 0.9),
        ("state", "tau0_ns", "0.25", "tau0", 2.5e-10),
        ("state", "theta_deg", "90.0", "theta", math.pi / 2),
        ("state", "phi_instr_rad", "0.25", "phi_instr", 0.25),
        ("scan", "coarse_step_ps", "4.0", "coarse_step", 4e-12),
        ("scan", "fine_step_ps", "0.25", "fine_step", 2.5e-13),
        ("scan", "span_ns", "2.0", "span", 2e-9),
        ("scan", "fine_span_ps", "8.0", "fine_span", 8e-12),
        ("scan", "fine_offset_ns", "1.0", "fine_offset", 1e-9),
        ("scan", "multi_span_ps", "32.0", "multi_span", 32e-12),
        ("scan", "dwell_single_s", "30.0", "dwell_single", 30.0),
        ("scan", "dwell_multi_s", "15.0", "dwell_multi", 15.0),
        ("wss", "channel_width_ghz", "25.0", "channel_width", 25_000_000_000),
        ("wss", "scan_step_ghz", "50.0", "scan_step", 50_000_000_000),
        ("wss", "scan_line_flux_hz", "1500.0", "scan_line_flux", 1500.0),
        ("wss", "scan_dwell_s", "2.0", "scan_dwell", 2.0),
        ("wss", "scan_band_thz", "193.25,193.75", "scan_band",
         (193_250_000_000_000, 193_750_000_000_000)),
        ("tomography", "balance", "0.65", "tomography.balance", 0.65),
        ("tomography", "sigma_balance", "0.01", "tomography.sigma_balance", 0.01),
        ("tomography", "visibility", "0.75", "tomography.visibility", 0.75),
        ("tomography", "sigma_visibility", "0.02", "tomography.sigma_visibility", 0.02),
        ("tomography", "phase_rad", "0.1", "tomography.phase", 0.1),
        ("tomography", "sigma_phase", "0.05", "tomography.sigma_phase", 0.05),
        ("tomography", "theta_target_deg", "45.0", "tomography.theta_target", math.pi / 4),
        ("tomography", "samples", "5000", "tomography.samples", 5000),
        ("tomography", "total_rate_hz", "100.0", "tomography.total_rate", 100.0),
        ("run", "seed", "7", "seed", 7),
    ]

    def test_fields_follow_the_rows_of_keys(self):
        expected = []
        for section, _, _, field, _, _ in _KEYS:
            name = section if section in ("resonator", "detector", "tomography") else field
            if name not in expected:
                expected.append(name)
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert names == expected + ["raw"]
        assert [f.name for f in dataclasses.fields(TomographyInputs)] == [
            field for section, _, _, field, _, _ in _KEYS if section == "tomography"]

    def test_frozen_and_in_the_config_module(self):
        cfg = load_config()
        for instance in (cfg, cfg.tomography):
            assert type(instance).__module__ == "freqbin.config"
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, dataclasses.fields(instance)[0].name, None)

    def test_loads_compare_hash_and_pickle_equal(self):
        first, second = load_config(), load_config()
        assert first is not second and first == second and hash(first) == hash(second)
        back = pickle.loads(pickle.dumps(first))
        assert type(back) is ScenarioConfig and back == first and hash(back) == hash(first)
        assert repr(back) == repr(first)

    def test_every_key_fills_its_own_attribute(self, tmp_path):
        assert [row[:2] for row in self.EVERY_KEY] == [row[:2] for row in _KEYS]
        assert all(text != DEFAULTS[s][k] for s, k, text, _, _ in self.EVERY_KEY)
        values = [value for *_, value in self.EVERY_KEY]
        assert len({repr(v) for v in values}) == len(values)
        sections = {}
        for section, key, text, _, _ in self.EVERY_KEY:
            sections.setdefault(section, []).append(f"{key} = {text}\n")
        path = tmp_path / "every.ini"
        path.write_text("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))
        cfg = load_config(path)
        for section, key, _, attribute, value in self.EVERY_KEY:
            got = operator.attrgetter(attribute)(cfg)
            assert got == value and type(got) is type(value), f"[{section}] {key}"


class TestPassbandStrings:
    def test_format_passbands_exact_string(self):
        # Bands come out sorted by frequency, in GHz, with the shortest repr.
        program = FilterProgram((Passband(ghz(193698.06), ghz(20), 2),
                                 Passband(ghz(193301.94), ghz(20), 1)))
        assert format_passbands(program) == "193301.94,20.0,1; 193698.06,20.0,2"
