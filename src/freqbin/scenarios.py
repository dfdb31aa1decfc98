"""End-to-end scenario runner: simulate, fit, and write artifact files.

Each scenario writes its data/fit files plus a manifest (resolved config,
seed, versions) into the output directory and returns a text summary.
Sub-scans within a scenario use consecutive derived seeds so their draws
are independent while the whole run stays a pure function of (config, seed).
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy

from . import __version__
from .comb import pair_for_index, q_factor, resonance_lines, transmission
from .config import ScenarioConfig, format_passbands
from .counting import (
    FringeDataset,
    ScanConfig,
    accidental_rate,
    computational_basis_counts,
    simulate_fringe,
)
from .errors import ConfigurationError, FitError
from .fit import estimate_balance, fit_envelope, fit_fringe, reconstruct
from .hom import Envelope, FringeModel, central_dip_fwhm, hom_multi, revival_period
from .states import (
    density_report,
    hwp_angle_for_phase,
    phase_from_stack,
    stack_for_phase,
)
from .wss import route_lines, select_pairs, singles_spectrum_scan

__all__ = ["run_scenario", "SCENARIOS", "parse_pairs_argument"]

SCENARIOS = ("spectrum", "fig2", "fig3", "fig4", "fig5")


def run_scenario(
    name: str,
    cfg: ScenarioConfig,
    out_dir,
    seed: int | None = None,
    workers: int = 1,
    pairs: str | None = None,
    phase: float | None = None,
) -> str:
    """Run one named scenario; returns the summary text it wrote."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r} (choose from {', '.join(SCENARIOS)})"
        )
    seed = cfg.seed if seed is None else int(seed)
    os.makedirs(out_dir, exist_ok=True)
    args = {}
    if pairs is not None:
        args["pairs"] = pairs
    if phase is not None:
        args["phase"] = repr(float(phase))
    _write_manifest(out_dir, cfg, name, seed, args)
    runner = {
        "spectrum": _run_spectrum,
        "fig2": _run_fig2,
        "fig3": _run_fig3,
        "fig4": _run_fig4,
        "fig5": _run_fig5,
    }[name]
    kwargs = {}
    if name == "fig3":
        if pairs is None:
            raise ConfigurationError("fig3 requires --pairs (e.g. 5 or 2-5)")
        kwargs["pairs"] = pairs
    if name == "fig4":
        kwargs["phase_deg"] = 0.0 if phase is None else float(phase)
    summary = runner(cfg, out_dir, seed, workers, **kwargs)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    return summary


def parse_pairs_argument(text: str) -> list[int]:
    """'5' -> [5]; '2-5' -> [2, 3, 4, 5]."""
    text = text.strip()
    try:
        if "-" in text:
            lo_s, hi_s = text.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        m = int(text)
        if m < 1:
            raise ValueError
        return [m]
    except ValueError:
        raise ConfigurationError(
            f"--pairs must be a positive index or range like 2-5, got {text!r}"
        ) from None


def _write_manifest(out_dir, cfg: ScenarioConfig, name: str, seed: int, args: dict):
    lines = [
        f"scenario = {name}",
        f"seed = {seed}",
        f"freqbin_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"scipy_version = {scipy.__version__}",
    ]
    for key, value in sorted(args.items()):
        lines.append(f"arg_{key} = {value}")
    for section, items in cfg.raw:
        lines.append(f"[{section}]")
        for key, value in items:
            lines.append(f"{key} = {value}")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _snapped_tau0(cfg: ScenarioConfig) -> float:
    """Delay offset aligned to the revival grid j/(2 fsr).

    With whole beat cycles between the delay origin and the envelope
    center, every pair's fringe carries the prepared phase directly, so
    fitted phases compare to waveplate settings without a carrier term.
    """
    period = revival_period(cfg.resonator.fsr)
    return round(cfg.tau0 / period) * period


def _fringe_model(cfg: ScenarioConfig, indices, phi: float) -> FringeModel:
    env = Envelope.from_fwhm(cfg.resonator.fwhm)
    pairs = tuple(
        (float(pair_for_index(cfg.resonator, m).detuning), cfg.visibility, phi)
        for m in indices
    )
    return FringeModel(pairs, _snapped_tau0(cfg), 0.0, env)


def _accidental(cfg: ScenarioConfig, n_channels: int) -> float:
    return accidental_rate(
        cfg.singles_signal * n_channels,
        cfg.singles_idler * n_channels,
        cfg.detector.coincidence_window,
    )


def _sim(cfg, model, scan, seed, workers, n_channels=1):
    rate = cfg.pair_rate * len(model.pairs)
    return simulate_fringe(
        model, scan, cfg.detector, rate, seed,
        accidental=_accidental(cfg, n_channels), workers=workers,
    )


def _write_fit(out_dir, stem: str, result) -> None:
    with open(os.path.join(out_dir, f"{stem}_fit.txt"), "w") as fh:
        fh.write(result.report())


def _write_curve(path, taus, values) -> None:
    with open(path, "w") as fh:
        fh.write("delay_ps,probability\n")
        for tau, value in zip(taus, values):
            fh.write(f"{float(tau) * 1e12!r},{float(value)!r}\n")


def _run_spectrum(cfg, out_dir, seed, workers):
    model = cfg.resonator
    span = 3 * model.fsr
    step = max(model.fwhm // 10, 1)
    freqs = np.arange(model.pump_frequency - span // 2,
                      model.pump_frequency + span // 2 + step, step, dtype=np.float64)
    trans = transmission(model, freqs)
    with open(os.path.join(out_dir, "transmission.csv"), "w") as fh:
        fh.write("frequency_thz,transmittance\n")
        for f, t in zip(freqs, trans):
            fh.write(f"{f / 1e12:.9g},{t:.9g}\n")

    scan = singles_spectrum_scan(
        model, cfg.scan_band, cfg.scan_step, cfg.channel_width,
        cfg.scan_line_flux, cfg.detector.dark_rate, cfg.scan_dwell, seed,
    )
    with open(os.path.join(out_dir, "singles_scan.csv"), "w") as fh:
        fh.write("center_thz,counts\n")
        for center, n in scan:
            fh.write(f"{center / 1e12!r},{n}\n")

    lines = resonance_lines(model, cfg.scan_band)
    counts = np.array([n for _, n in scan])
    return "\n".join([
        "scenario = spectrum",
        f"q_factor = {q_factor(model.pump_frequency, model.fwhm)!r}",
        f"lines_in_band = {len(lines)}",
        f"scan_points = {len(scan)}",
        f"scan_counts_max = {int(counts.max())}",
        f"scan_counts_min = {int(counts.min())}",
    ]) + "\n"


def _run_fig2(cfg, out_dir, seed, workers):
    pair = pair_for_index(cfg.resonator, 2)
    detuning = float(pair.detuning)
    phi = cfg.theta + cfg.phi_instr
    model = _fringe_model(cfg, [2], phi)

    coarse_scan = ScanConfig(0.0, cfg.span, cfg.coarse_step, cfg.dwell_single)
    coarse = _sim(cfg, model, coarse_scan, seed, workers)
    coarse.to_csv(os.path.join(out_dir, "coarse.csv"))
    _write_curve(os.path.join(out_dir, "curve_coarse.csv"),
                 coarse_scan.grid(), hom_multi(model, coarse_scan.grid()))

    env_fit = fit_envelope(coarse)
    if "degenerate-data" in env_fit.flags:
        raise FitError("coarse scan has constant counts: no envelope to fit")
    _write_fit(out_dir, "envelope", env_fit)

    window = {}
    for stem, start, sub in (
        ("fine_zero", 0.0, 1),
        ("fine_offset", cfg.fine_offset, 2),
    ):
        scan = ScanConfig(start, start + cfg.fine_span, cfg.fine_step,
                          cfg.dwell_single)
        ds = _sim(cfg, model, scan, seed + sub, workers)
        ds.to_csv(os.path.join(out_dir, f"{stem}.csv"))
        res = fit_fringe(ds, [detuning], sigma=None)
        _write_fit(out_dir, stem, res)
        window[stem] = res

    za, zb = window["fine_zero"], window["fine_offset"]
    return "\n".join([
        "scenario = fig2",
        f"fwhm_true_hz = {float(cfg.resonator.fwhm)!r}",
        f"fwhm_fit_hz = {env_fit.params['fwhm']!r} +/- {env_fit.sigmas['fwhm']!r}",
        f"tau0_fit_s = {env_fit.params['tau0']!r}",
        f"visibility_zero = {za.visibility_clamped!r} +/- {za.sigmas['visibility']!r}",
        f"visibility_offset = {zb.visibility_clamped!r} +/- {zb.sigmas['visibility']!r}",
        f"phi_zero = {za.phi!r} +/- {za.sigmas['phi']!r}",
        f"oscillation_period_ps = {1e12 / detuning!r}",
    ]) + "\n"


def _run_fig3(cfg, out_dir, seed, workers, pairs):
    indices = parse_pairs_argument(pairs)
    phi = cfg.theta + cfg.phi_instr
    model = _fringe_model(cfg, indices, phi)
    program = select_pairs(cfg.resonator, indices, cfg.channel_width)
    routed = route_lines(program, [
        line
        for m in indices
        for line in (pair_for_index(cfg.resonator, m).signal,
                     pair_for_index(cfg.resonator, m).idler)
    ])
    n_routed = sum(len(v) for v in routed.values())
    tau0 = model.tau0

    lines = ["scenario = fig3",
             f"pairs = {','.join(str(m) for m in indices)}",
             f"wss_program = {format_passbands(program)}",
             f"wss_lines_routed = {n_routed}"]

    if len(indices) == 1:
        detuning = model.pairs[0][0]
        half = cfg.fine_span / 2.0
        scan = ScanConfig(tau0 - half, tau0 + half, cfg.fine_step,
                          cfg.dwell_single)
        ds = _sim(cfg, model, scan, seed, workers)
        ds.to_csv(os.path.join(out_dir, "fringe.csv"))
        res = fit_fringe(ds, [detuning], sigma=None, fit_detuning=True)
        _write_fit(out_dir, "fringe", res)
        period_fit = 1.0 / res.params["detuning"]
        period_sigma = res.sigmas["detuning"] / res.params["detuning"] ** 2
        lines += [
            f"visibility = {res.visibility_clamped!r} +/- {res.sigmas['visibility']!r}",
            f"phi = {res.phi!r} +/- {res.sigmas['phi']!r}",
            f"period_fit_ps = {period_fit * 1e12!r} +/- {period_sigma * 1e12!r}",
            f"period_expected_ps = {1e12 / detuning!r}",
        ]
    else:
        detunings = [d for d, _, _ in model.pairs]
        half = cfg.multi_span / 2.0
        scan = ScanConfig(tau0 - half, tau0 + half, cfg.fine_step,
                          cfg.dwell_multi)
        ds = _sim(cfg, model, scan, seed, workers, n_channels=len(indices))
        ds.to_csv(os.path.join(out_dir, "fringe.csv"))
        _write_curve(os.path.join(out_dir, "curve.csv"),
                     scan.grid(), hom_multi(model, scan.grid()))
        res = fit_fringe(ds, detunings, sigma=None)
        _write_fit(out_dir, "fringe", res)
        lines += [
            f"visibility = {res.visibility_clamped!r} +/- {res.sigmas['visibility']!r}",
            f"phi = {res.phi!r} +/- {res.sigmas['phi']!r}",
            f"revival_period_ps = {revival_period(cfg.resonator.fsr) * 1e12!r}",
            f"dip_fwhm_ps = {central_dip_fwhm(model) * 1e12!r}",
        ]
    return "\n".join(lines) + "\n"


def _run_fig4(cfg, out_dir, seed, workers, phase_deg):
    theta_t = math.radians(phase_deg) % (2.0 * math.pi)
    alpha_hwp = hwp_angle_for_phase(theta_t)
    theta_real = phase_from_stack(stack_for_phase(theta_t))
    phi = theta_real + cfg.phi_instr
    tau0 = _snapped_tau0(cfg)
    lines = ["scenario = fig4",
             f"phase_target_deg = {float(phase_deg)!r}",
             f"hwp_angle_rad = {alpha_hwp!r}",
             f"phase_realized_rad = {theta_real!r}"]

    for stem, indices, dwell, span, sub in (
        ("single", [2], cfg.dwell_single, cfg.fine_span, 0),
        ("multi", [2, 3, 4, 5], cfg.dwell_multi, cfg.multi_span, 1),
    ):
        model = _fringe_model(cfg, indices, phi)
        half = span / 2.0
        scan = ScanConfig(tau0 - half, tau0 + half, cfg.fine_step, dwell)
        ds = _sim(cfg, model, scan, seed + sub, workers,
                  n_channels=len(indices))
        ds.to_csv(os.path.join(out_dir, f"{stem}.csv"))
        res = fit_fringe(ds, [d for d, _, _ in model.pairs], sigma=None)
        _write_fit(out_dir, stem, res)
        err = (res.phi - theta_t + math.pi) % (2.0 * math.pi) - math.pi
        lines += [
            f"{stem}_visibility = {res.visibility_clamped!r} +/- {res.sigmas['visibility']!r}",
            f"{stem}_phi = {res.phi!r} +/- {res.sigmas['phi']!r}",
            f"{stem}_phi_error = {err!r}",
        ]
    return "\n".join(lines) + "\n"


def _run_fig5(cfg, out_dir, seed, workers):
    t = cfg.tomography
    recon = reconstruct(
        t.balance, t.sigma_balance,
        t.visibility, t.sigma_visibility,
        t.phase, t.sigma_phase,
        theta_target=t.theta_target, samples=t.samples, seed=seed,
    )
    with open(os.path.join(out_dir, "density.txt"), "w") as fh:
        fh.write(density_report(recon.rho))

    n1, n2 = computational_basis_counts(t.balance, t.total_rate,
                                        cfg.dwell_single, seed)
    p_hat, sigma_p = estimate_balance(n1, math.sqrt(n1) if n1 else 0.0,
                                      n2, math.sqrt(n2) if n2 else 0.0)
    report = "\n".join([
        f"fidelity = {recon.fidelity!r} +/- {recon.sigma_fidelity!r}",
        f"theta_target = {recon.theta_target!r}",
        f"rejection_rate = {recon.rejection_rate!r}",
        f"samples_accepted = {recon.samples_accepted}",
        f"balance_input = {t.balance!r} +/- {t.sigma_balance!r}",
        f"counts_si = {n1}",
        f"counts_is = {n2}",
        f"balance_simulated = {p_hat!r} +/- {sigma_p!r}",
    ]) + "\n"
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report)
    return "scenario = fig5\n" + report
