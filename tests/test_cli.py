"""Command-line entry point: exit codes, outputs, argument parsing."""

import contextlib
import io
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import freqbin.scenarios
from freqbin.cli import build_parser, main
from freqbin.config import _SCANS, DEFAULTS, load_config
from freqbin.counting import MAX_SCAN_POINTS, load_dataset
from freqbin.errors import ConfigurationError, FitError
from freqbin.fit import fit_envelope, fit_fringe
from freqbin.scenarios import _pair_range

CONFIG_KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys]
NO_DIP = "[state] visibility, [state] theta_deg and [state] phi_instr_rad"
REPRODUCE_ALL = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_reproduce_all_runs_without_scipy(tmp_path):
    """The stock run needs no scipy: with its import blocked the tree is the same."""
    blocked = ("import runpy, sys; sys.modules['scipy'] = None; "
               "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", blocked, str(REPRODUCE_ALL),
                           "--out", str(tmp_path / "blocked")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with contextlib.redirect_stdout(io.StringIO()):
        assert runpy.run_path(str(REPRODUCE_ALL))["main"](
            ["--out", str(tmp_path / "inprocess")]) == 0
    assert _tree(tmp_path / "blocked") == _tree(tmp_path / "inprocess")


@pytest.mark.parametrize("ini, key", [
    ("[resonator]\nfwhm_mhz = -1\n", "fwhm_mhz"),
    ("[scan]\nfine_step_ps = 2.0\n", "fine_step_ps"),
])
def test_reproduce_all_bad_config_exits_2(tmp_path, capsys, ini, key):
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    reproduce_all = runpy.run_path(str(REPRODUCE_ALL))["main"]
    assert reproduce_all(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
@pytest.mark.parametrize("entry", ["freqbin", "reproduce_all"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, entry, below):
    """An --out that is a file, or lies below one, exits 2 naming --out, no traceback."""
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "o" if below else blocker
    if entry == "freqbin":
        code = main(["fig5", "--out", str(out)])
    else:
        code = runpy.run_path(str(REPRODUCE_ALL))["main"](["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and str(blocker) in err and "Traceback" not in err
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("argv, ini, label", [
    (["--seed", "-1"], "", "--seed"),
    (["--seed", str(2**64)], "", "--seed"),
    ([], "[run]\nseed = -1\n", "[run] seed"),
], ids=["flag_negative", "flag_2**64", "config_negative"])
@pytest.mark.parametrize("entry", ["freqbin", "reproduce_all"])
def test_out_of_range_seed_exits_2(tmp_path, capsys, entry, argv, ini, label):
    """A seed outside [0, 2**64) would alias another seed: exit 2 naming it, write nothing."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    out = tmp_path / "o"
    argv = [*argv, "--config", str(cfg), "--out", str(out)]
    if entry == "freqbin":
        code = main(["fig3", "--pairs", "5", *argv])
    else:
        code = runpy.run_path(str(REPRODUCE_ALL))["main"](argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {label} ") and "seed" in err and "Traceback" not in err
    assert not out.exists()


def test_sub_scans_wrap_past_the_top_seed(tmp_path):
    """At --seed 2**64 - 1, fig2's and fig4's later sub-scans draw seeds 0
    and 1, and their headers name the seed drawn."""
    top = 2**64 - 1
    expected = {"fig2": {"coarse.csv": top, "fine_zero.csv": 0, "fine_offset.csv": 1},
                "fig4": {"single.csv": top, "multi.csv": 0}}
    for scenario, files in expected.items():
        out = tmp_path / scenario
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([scenario, "--seed", str(top), "--out", str(out)]) == 0
        for name, seed in files.items():
            assert f"# seed={seed}\n" in (out / name).read_text()


def test_library_seed_must_be_an_integer(tmp_path):
    """run_scenario refuses seed 1.5 before it creates anything, rather than
    truncate it; a numpy integer seed runs as that integer."""
    cfg = load_config(None)
    with pytest.raises(ConfigurationError, match="^--seed must be an integer"):
        freqbin.scenarios.run_scenario("fig5", cfg, tmp_path / "half", seed=1.5)
    assert not (tmp_path / "half").exists()
    for name, seed in (("numpy", np.int64(7)), ("int", 7)):
        freqbin.scenarios.run_scenario("fig5", cfg, tmp_path / name, seed=seed)
    assert "seed = 7\n" in (tmp_path / "numpy" / "manifest.txt").read_text()
    assert _tree(tmp_path / "numpy") == _tree(tmp_path / "int")


@pytest.mark.parametrize("scenario,args,label", [
    ("fig5", {"phase": "abc"}, "--phase"),
    ("fig4", {"phase": math.nan}, "--phase"),
    ("fig5", {"phase": math.inf}, "--phase"),
    ("fig3", {"pairs": 5}, "--pairs"),
], ids=["phase-text", "phase-nan", "phase-inf", "pairs-int"])
def test_library_phase_and_pairs_are_checked_before_any_output(tmp_path, scenario, args,
                                                                 label):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match=f"^{label}: "):
        freqbin.scenarios.run_scenario(scenario, load_config(None), out, **args)
    assert not out.exists()


def test_reproduce_all_fit_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise FitError("no convergence")

    monkeypatch.setattr(freqbin.scenarios, "fit_fringe", boom)
    reproduce_all = runpy.run_path(str(REPRODUCE_ALL))["main"]
    assert reproduce_all(["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "fit error: no convergence\n"


@pytest.fixture(scope="module")
def reproduce_all_trees(tmp_path_factory):
    """The stock `reproduce_all` tree and the `--seed 1` tree."""
    root = tmp_path_factory.mktemp("reproduce_all")
    reproduce_all = runpy.run_path(str(REPRODUCE_ALL))["main"]
    trees = {"stock": root / "stock", "seed 1": root / "seed1"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert reproduce_all(["--out", str(trees["stock"])]) == 0
        assert reproduce_all(["--seed", "1", "--out", str(trees["seed 1"])]) == 0
    return trees


def test_every_count_csv_refits_to_its_report(reproduce_all_trees):
    """Each count CSV has one fit report (`coarse.csv` has `envelope_fit.txt`,
    every other `<stem>.csv` has `<stem>_fit.txt`), and refitting the
    reloaded CSV with the report's kind gives that report byte for byte.
    Every multiplexed report's tau0 lies in (-1/(2 delta), 1/(2 delta)]."""
    checked = multiplexed = 0
    for tree in reproduce_all_trees.values():
        for job in sorted(p for p in tree.iterdir() if p.is_dir()):
            counts = sorted(p for p in job.glob("*.csv") if p.read_text().startswith("# "))
            reports = {csv: job / ("envelope_fit.txt" if csv.stem == "coarse"
                                   else f"{csv.stem}_fit.txt") for csv in counts}
            assert sorted(reports.values()) == sorted(job.glob("*_fit.txt")), job.name
            for csv, report in reports.items():
                text = report.read_text()
                data = load_dataset(csv)
                if re.search(r"^fwhm = ", text, re.MULTILINE):
                    refit = fit_envelope(data)
                else:
                    detunings = [float(d) for d in data.metadata["detunings_hz"].split(",")]
                    refit = fit_fringe(data, detunings, fit_detuning=bool(
                        re.search(r"^detuning = ", text, re.MULTILINE)))
                    if len(detunings) > 1:  # tau0 lies within one revival period
                        delta = (max(detunings) - min(detunings)) / (len(detunings) - 1)
                        assert -0.5 < refit.tau0 * delta <= 0.5, f"{job.name}/{report.name}"
                        multiplexed += 1
                assert refit.report() == text, f"{job.name}/{report.name}"
                checked += 1
    assert (checked, multiplexed) == (34, 14)


_SUMMARY_LINE = re.compile(r"(\w+) = (.+?)(?: \+/- (.+))?")
_TEXT_KEYS = {"scenario", "pairs", "wss_program"}


def _number(text: str) -> float:
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    assert math.isfinite(value), text
    return value


def test_summary_lines_are_key_value_sigma(reproduce_all_trees):
    """Every stock `summary.txt` line, and fig5's `report.txt`, is `key = value`
    or `key = value +/- sigma` with finite plain numbers (a numpy scalar's
    repr does not parse), and fig5's report is its summary without the
    scenario line."""
    tree = reproduce_all_trees["stock"]
    texts = [p.read_text() for p in sorted(tree.glob("*/summary.txt"))]
    texts.append((tree / "fig5" / "report.txt").read_text())
    assert len(texts) == 14
    for text in texts:
        assert text.endswith("\n")
        for line in text.splitlines():
            match = _SUMMARY_LINE.fullmatch(line)
            assert match, line
            key, value, sigma = match.groups()
            if key in _TEXT_KEYS:
                assert sigma is None, line
            else:
                _number(value)
            if sigma is not None:
                _number(sigma)
    fig5 = tree / "fig5"
    assert (fig5 / "summary.txt").read_text() == "scenario = fig5\n" + (
        fig5 / "report.txt").read_text()


def test_csv_and_ini_are_utf8_under_the_c_locale(tmp_path):
    """Under an ASCII locale a CSV whose metadata is not ASCII round-trips,
    and an INI with a non-ASCII comment runs: both are UTF-8 text."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    csv = tmp_path / "d.csv"
    script = ("import sys; from freqbin import FringeDataset, load_dataset; "
              "note = {'note': '\\u00b5s'}; "
              "FringeDataset([0.0, 1e-12], [3, 4], 1.0, note).to_csv(sys.argv[1]); "
              "assert load_dataset(sys.argv[1]).metadata == note")
    done = subprocess.run([sys.executable, "-c", script, str(csv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "# note=\u00b5s\n".encode() in csv.read_bytes()
    ini = tmp_path / "c.ini"
    ini.write_bytes("[scan]\n# dwell in \u00b5s\ndwell_single_s = 30.0\n".encode())
    done = subprocess.run([sys.executable, "-m", "freqbin", "fig5", "--config", str(ini),
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[scan]\n# \xff\ndwell_single_s = 30.0\n")
        code = main(["fig5", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot read config {bad}: 'utf-8' codec")
        assert "Traceback" not in err

    def test_fig5_without_basis_counts_exits_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[tomography]\ntotal_rate_hz = 0\n")
        out = tmp_path / "o"
        code = main(["fig5", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "[tomography] total_rate_hz" in err and "[scan] dwell_single_s" in err
        assert not (out / "density.txt").exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main([
            "fig5", "--config", str(tmp_path / "absent.ini"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bad_pairs_value_exits_2(self, tmp_path):
        code = main([
            "fig3", "--pairs", "5-2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ini,pairs,label", [
        ("", "2-26", "--pairs"),
        ("", "2-1000", "--pairs"),
        ("", "100000000000", "--pairs"),
        ("[scan]\nfine_step_ps = 1e-5\nmulti_span_ps = 4\n", "2000", "--pairs"),
        ("[wss]\nchannel_width_ghz = 500\n", "2-5", "[wss] channel_width_ghz"),
        ("[scan]\nfine_step_ps = 1e-5\nmulti_span_ps = 4\n", "2-1900",
         "--pairs 2-1900 with [scan] multi_span_ps, [scan] fine_step_ps"),
        ("[state]\nvisibility = 0\n", "2-5", NO_DIP),
        ("[state]\ntheta_deg = 90\n", "2-15", NO_DIP),
        ("[resonator]\nfsr_ghz = 0.000002\nfwhm_mhz = 0.000001\n[scan]\nfine_step_ps = 0.01\n"
         "[wss]\nchannel_width_ghz = 0.000001\n", "100000-200000", "--pairs"),
        # 8 ps is below two 5.05 ps beat periods of adjacent pairs.
        ("[scan]\nmulti_span_ps = 8\n", "2-5",
         "--pairs 2-5 with [scan] multi_span_ps, [scan] fine_step_ps: the scan spans 8 ps"),
    ], ids=["above_nyquist", "long_range", "huge_index", "signal_below_0_hz",
            "passbands_overlap", "profile_work", "no_dip_visibility", "no_dip_theta",
            "pair_count", "short_multi_span"])
    def test_bad_fig3_pairs_exit_2_before_output(self, tmp_path, capsys, ini, pairs,
                                                 label):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = main(["fig3", "--pairs", pairs, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert label in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_fig3_pairs_up_to_nyquist_accepted(self):
        # 2 * 25 * 99.03 GHz lies below 1 / (2 * 0.1 ps) = 5 THz.
        indices, program = freqbin.scenarios._fig3_pairs(load_config(None), "2-25")
        assert indices == list(range(2, 26))
        assert {band.output_port for band in program.passbands} == {1, 2}

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

    @pytest.mark.parametrize("argv", [["fig3", "--pairs", "5"], ["fig3", "--pairs", "2-5"],
                                      ["fig4", "--phase", "90"]], ids=["single", "multi", "fig4"])
    def test_zero_count_fringe_scan_exits_3(self, tmp_path, capsys, argv):
        # No detected pairs and no accidentals: every fringe scan counts 0.
        dark = tmp_path / "dark.ini"
        dark.write_text("[detector]\nefficiency_signal = 0.0\n"
                        "[source]\nsingles_signal_hz = 0.0\n")
        out = tmp_path / "o"
        assert main([*argv, "--config", str(dark), "--out", str(out)]) == 3
        assert "fringe scan has constant counts" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

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
        ("fig5", "[tomography]\nsamples = 1000001\n", "[tomography] samples"),
    ], ids=["extinction", "pump", "fwhm_vs_fsr", "efficiency_signal",
            "efficiency_idler", "dark_rate", "window", "band_low", "balance",
            "tomography_visibility", "non_physical", "samples", "samples_cap"])
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

    @pytest.mark.parametrize("scenario,ini,argv,labels", [
        ("fig2", "[scan]\nfine_offset_ns = 1e300\n", [], ["[scan] fine_offset_ns"]),
        ("fig3", "[state]\ntau0_ns = 1e12\n", ["--pairs", "2-5"], ["[state] tau0_ns"]),
        ("fig3", "[state]\ntau0_ns = 1e308\n", ["--pairs", "2-5"], ["[state] tau0_ns"]),
        ("fig2", "[scan]\nfine_step_ps = 1\n", [], ["[scan] fine_step_ps"]),
        ("fig2", "[scan]\ncoarse_step_ps = 500\n", [], ["[scan] coarse_step_ps"]),
        ("fig2", "[scan]\nspan_ns = 0.5\n", [], ["[scan] span_ns"]),
        ("spectrum", "[resonator]\npump_thz = 0.1\n", [],
         ["[resonator] pump_thz", "[resonator] fsr_ghz"]),
        ("fig4", "[scan]\nfine_step_ps = 1e-5\nmulti_span_ps = 4\n", [],
         ["fig4 pairs 2-5 with [scan] multi_span_ps, [scan] fine_step_ps"]),
        # 160,001 delays times the 9 columns of pairs 2-5.
        ("fig4", "[scan]\nfine_step_ps = 1e-4\nmulti_span_ps = 16\n", [],
         ["fig4 pairs 2-5 with [scan] multi_span_ps, [scan] fine_step_ps: 4 pairs over "
          "160,001 delays: the fit's design would take 1,440,009 entries"]),
    ], ids=["offset_swamps_span", "tau0_rounding", "tau0_overflow", "fine_points",
            "coarse_points", "coarse_span", "sweep_below_zero", "fig4_profile_work",
            "fig4_design_size"])
    def test_bad_scan_window_exits_2_at_load(self, tmp_path, capsys, scenario, ini,
                                             argv, labels):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "o"
        code = main([scenario, "--config", str(cfg), "--out", str(out), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert all(label in err for label in labels)
        assert "Traceback" not in err
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


@given(argv=st.sampled_from([("spectrum",), ("fig5",), ("fig2",), ("fig3", "--pairs", "2-15"),
                              ("fig4",)]),
       entry=st.sampled_from(CONFIG_KEYS),
       value=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e300", "x"]))
@example(argv=("spectrum",), entry=("wss", "scan_line_flux_hz"), value="1e300")
@example(argv=("fig5",), entry=("scan", "dwell_single_s"), value="1e300")
@settings(max_examples=150, derandomize=True, deadline=None)
def test_hostile_config_value_runs_or_exits_2(argv, entry, value):
    """Every key with a hostile value: a clean run or exit 2, never a bad summary.

    The fitting scenarios (fig2, fig3, fig4) may also end in a fit failure, exit 3.
    A clean run's work was bounded: every delay window of its config has at
    most MAX_SCAN_POINTS points, and a multiplexed fit passes the
    multiplexed-scan check (a deterministic bound, not a timing).
    """
    section, key = entry
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = Path(tmp) / "o"
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert code in ((0, 2) if argv[0] in ("spectrum", "fig5") else (0, 2, 3))
        if code == 0:
            summary = (out / "summary.txt").read_text()
            assert not re.search(r"\b(nan|inf)\b", summary)
            assert not re.search(r"= -\d+$", summary, re.MULTILINE)
            loaded = load_config(cfg)
            assert all(len(loaded.delay_scan(name)) <= MAX_SCAN_POINTS for name in _SCANS)
            multiplexed = {"fig3": range(2, 16), "fig4": freqbin.scenarios._FIG4_MULTI}
            if argv[0] in multiplexed:
                freqbin.scenarios._check_multiplexed_scan(loaded, multiplexed[argv[0]], argv[0])


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
        assert list(_pair_range(text)) == expected

    @pytest.mark.parametrize("text", ["0", "-3", "5-2", "x", "2-5-7", ""])
    def test_invalid_inputs(self, text):
        with pytest.raises(ConfigurationError):
            list(_pair_range(text))
