"""Command-line entry point: exit codes, outputs, argument parsing."""

import pytest

import freqbin.scenarios
from freqbin.cli import build_parser, main
from freqbin.errors import ConfigurationError, FitError
from freqbin.scenarios import parse_pairs_argument


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
        assert args.format == "csv"


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
