"""Command-line entry point: exit codes, outputs, argument parsing."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import freqbin.scenarios
from freqbin.cli import build_parser, main
from freqbin.config import DEFAULTS
from freqbin.errors import ConfigurationError, FitError
from freqbin.scenarios import parse_pairs_argument

CONFIG_KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys]


class TestMain:
    def test_fig5_writes_expected_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["fig5", "--out", str(out), "--seed", "7"])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"manifest.txt", "summary.txt", "density.txt", "report.txt"} <= names

    def test_seed_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        main(["fig5", "--out", str(out), "--seed", "7"])
        manifest = (out / "manifest.txt").read_text()
        assert "seed = 7" in manifest
        assert "scenario = fig5" in manifest

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        code = main([
            "fig5", "--config", str(bad), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main([
            "fig5", "--config", str(tmp_path / "absent.ini"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bad_workers_exits_2(self, tmp_path):
        code = main(["fig5", "--workers", "0", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_pairs_value_exits_2(self, tmp_path):
        code = main([
            "fig3", "--pairs", "5-2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_fit_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise FitError("no convergence")

        monkeypatch.setattr(freqbin.scenarios, "fit_fringe", boom)
        code = main([
            "fig3", "--pairs", "5", "--out", str(tmp_path / "o"),
            "--seed", "1",
        ])
        assert code == 3

    def test_constant_coarse_scan_exits_3(self, tmp_path, capsys):
        # Near-zero rates give a constant-count coarse scan: no envelope.
        dark = tmp_path / "dark.ini"
        dark.write_text("[source]\npair_rate_hz = 1e-9\n"
                        "singles_signal_hz = 1e-9\nsingles_idler_hz = 1e-9\n")
        code = main(["fig2", "--config", str(dark), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "coarse scan" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,ini,argv,key", [
        ("fig2", "[source]\nsingles_signal_hz = nan\n", [], "singles_signal_hz"),
        ("fig2", "[source]\npair_rate_hz = inf\n", [], "pair_rate_hz"),
        ("fig2", "[state]\ntau0_ns = nan\n", [], "tau0_ns"),
        ("fig5", "[tomography]\nsigma_phase = inf\n", [], "sigma_phase"),
        ("spectrum", "[wss]\nscan_band_thz = 193.0,inf\n", [], "scan_band_thz"),
        ("fig4", "", ["--phase", "nan"], "--phase"),
        ("fig5", "[resonator]\npump_thz = 1e300\n", [], "pump_thz"),
        ("spectrum", "[wss]\nscan_band_thz = 193.0,1e300\n", [], "scan_band_thz"),
    ], ids=["singles", "pair_rate", "tau0", "sigma_phase", "scan_band", "phase",
            "pump_overflow", "scan_band_overflow"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, scenario, ini, argv, key):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        code = main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o"), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario,ini,label", [
        ("fig5", "[resonator]\nextinction = 1.5\n", "[resonator] extinction"),
        ("fig5", "[resonator]\npump_thz = 0\n", "[resonator] pump_thz"),
        ("fig5", "[resonator]\nfwhm_mhz = 200000\n", "[resonator] fwhm_mhz"),
        ("fig5", "[detector]\nefficiency_signal = 2\n", "[detector] efficiency_signal"),
        ("fig5", "[detector]\nefficiency_idler = -0.1\n", "[detector] efficiency_idler"),
        ("fig5", "[detector]\ndark_rate_hz = -1\n", "[detector] dark_rate_hz"),
        ("fig5", "[detector]\ncoincidence_window_ns = 0\n",
         "[detector] coincidence_window_ns"),
        ("spectrum", "[wss]\nscan_band_thz = 0,194\n", "[wss] scan_band_thz"),
        ("fig5", "[tomography]\nbalance = 2\n", "[tomography] balance"),
        ("fig5", "[tomography]\nvisibility = 1.5\n", "[tomography] visibility"),
        ("fig5", "[tomography]\nbalance = 1\n", "[tomography] balance"),
        ("fig5", "[tomography]\nsamples = 1\n", "[tomography] samples"),
    ], ids=["extinction", "pump", "fwhm_vs_fsr", "efficiency_signal",
            "efficiency_idler", "dark_rate", "window", "band_low", "balance",
            "tomography_visibility", "non_physical", "samples"])
    def test_out_of_bound_value_exits_2(self, tmp_path, capsys, scenario, ini, label):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = main([scenario, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert label in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario,ini,argv,label", [
        ("fig2", "[scan]\ncoarse_step_ps = 1e-6\n", [], "[scan] coarse_step_ps"),
        ("fig2", "[scan]\nfine_step_ps = 1e-9\n", [], "[scan] fine_step_ps"),
        ("fig4", "[scan]\nfine_span_ps = 1e6\n", [], "[scan] fine_span_ps"),
        ("fig3", "[scan]\nmulti_span_ps = 1e6\n", ["--pairs", "2-5"],
         "[scan] multi_span_ps"),
        ("spectrum", "[wss]\nscan_step_ghz = 1e-6\n", [], "[wss] scan_step_ghz"),
        ("spectrum", "[resonator]\nfwhm_mhz = 1e-3\n", [], "[resonator] fwhm_mhz"),
    ], ids=["coarse", "fine", "fine_span", "multi", "wss_scan", "transmission"])
    def test_scan_point_cap_exits_2(self, tmp_path, capsys, scenario, ini, argv, label):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = main([scenario, "--config", str(cfg), "--out", str(out), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert label in err and "1,000,000 points" in err
        # Rejected while loading the config: no grid was built, no file written.
        assert not out.exists()

    @pytest.mark.parametrize("scenario,ini", [
        ("spectrum", "[wss]\nscan_line_flux_hz = 1e300\n"),
        ("fig5", "[scan]\ndwell_single_s = 1e300\n"),
    ], ids=["spectrum_flux", "fig5_dwell"])
    def test_poisson_mean_past_int64_exits_2(self, tmp_path, capsys, scenario, ini):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = main([scenario, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Poisson mean" in err
        assert not (out / "summary.txt").exists()

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["fig9"])
        assert err.value.code == 2

    def test_fig3_requires_pairs(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fig3", "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    def test_summary_printed_on_stdout(self, tmp_path, capsys):
        main(["fig5", "--out", str(tmp_path / "o"), "--seed", "7"])
        out = capsys.readouterr().out
        assert "fidelity" in out


@given(scenario=st.sampled_from(["spectrum", "fig5"]),
       entry=st.sampled_from(CONFIG_KEYS),
       value=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e300", "x"]))
@example(scenario="spectrum", entry=("wss", "scan_line_flux_hz"), value="1e300")
@example(scenario="fig5", entry=("scan", "dwell_single_s"), value="1e300")
@settings(max_examples=150, derandomize=True, deadline=None)
def test_hostile_config_value_runs_or_exits_2(scenario, entry, value):
    """Every key with a hostile value: a clean run or exit 2, never a bad summary."""
    section, key = entry
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = Path(tmp) / "o"
        code = main([scenario, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            summary = (out / "summary.txt").read_text()
            assert not re.search(r"\b(nan|inf)\b", summary)
            assert not re.search(r"= -\d+$", summary, re.MULTILINE)


class TestParser:
    def test_all_scenarios_registered(self):
        parser = build_parser()
        args = parser.parse_args(["spectrum", "--out", "x"])
        assert args.scenario == "spectrum"
        args = parser.parse_args(["fig4", "--phase", "90"])
        assert args.phase == 90.0

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.out == "out"
        assert args.workers == 1
        assert args.seed is None


class TestParsePairs:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5", [5]),
            ("10", [10]),
            ("2-5", [2, 3, 4, 5]),
            ("2-15", list(range(2, 16))),
            (" 2-5 ", [2, 3, 4, 5]),
        ],
    )
    def test_valid_inputs(self, text, expected):
        assert parse_pairs_argument(text) == expected

    @pytest.mark.parametrize("text", ["0", "-3", "5-2", "x", "2-5-7", ""])
    def test_invalid_inputs(self, text):
        with pytest.raises(ConfigurationError):
            parse_pairs_argument(text)
