"""End-to-end scenario runner: simulate, fit, and write artifact files.

Each scenario writes its data/fit files plus a manifest (resolved config,
seed, package and numpy versions) into the output directory and returns a
text summary.  Sub-scans within a scenario use consecutive derived seeds
so their draws are independent while the whole run stays a pure function
of (config, seed).

The delay windows and the transmission sweep come from the config, which
checks them at load (ordered, 8 to 1,000,000 points, a coarse span of at
least 1 ns, a sweep above 0 Hz), so none fails after output is written.
fig3's `--pairs` is checked against the comb, the WSS channel width, the
fine step's Nyquist frequency and the fit's work before any output, and
fig4's fixed multiplexed fit against the same work bound.
Each fringe window runs through `_fit_scan`.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import __version__
from .comb import pair_for_index, q_factor, resonance_lines, transmission
from .config import ScenarioConfig, format_passbands
from .counting import (MAX_SCAN_POINTS, accidental_rate, computational_basis_counts,
                       simulate_fringe, write_rows)
from .errors import ConfigurationError, DomainError
from .fit import estimate_balance, fit_envelope, fit_fringe, reconstruct, tau0_profile_points
from .hom import Envelope, FringeModel, central_dip_fwhm, hom_multi, revival_period
from .states import (
    density_report,
    hwp_angle_for_phase,
    phase_from_stack,
    stack_for_phase,
)
from .wss import route_lines, select_pairs, singles_spectrum_scan

__all__ = ["run_scenario", "SCENARIOS"]

SCENARIOS = ("spectrum", "fig2", "fig3", "fig4", "fig5")

# fig4's multiplexed fringe: pairs 2-5 in the multi window.
_FIG4_MULTI = range(2, 6)


def run_scenario(
    name: str,
    cfg: ScenarioConfig,
    out_dir,
    seed: int | None = None,
    workers: int = 1,
    pairs: str | None = None,
    phase: float | None = None,
) -> str:
    """Run one named scenario (workers is ignored); returns its summary text."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r} (choose from {', '.join(SCENARIOS)})"
        )
    kwargs = {}
    if name == "fig3":
        if pairs is None:
            raise ConfigurationError("fig3 requires --pairs (e.g. 5 or 2-5)")
        kwargs["indices"], kwargs["program"] = _fig3_pairs(cfg, pairs)
    if name == "fig4":
        _check_profile_work(cfg, _FIG4_MULTI, "fig4 pairs")
        kwargs["phase_deg"] = 0.0 if phase is None else float(phase)
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
    summary = runner(cfg, out_dir, seed, **kwargs)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    return summary


def _pair_range(text: str) -> range:
    """The indices `--pairs` names, as a range: bounded before any list is built."""
    text = text.strip()
    try:
        if "-" in text:
            lo_s, hi_s = text.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
        if lo < 1 or hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        raise ConfigurationError(
            f"--pairs must be a positive index or range like 2-5, got {text!r}"
        ) from None


def _fig3_pairs(cfg: ScenarioConfig, text: str):
    """fig3's pair indices and WSS program, checked before any output is written.

    Each pair's beat 2*m*fsr must lie below the Nyquist frequency of the
    fine delay step, or the scan cannot sample its fringe.  The highest
    index is the one the comb can reject (its signal line goes below 0 Hz).
    The multiplexed fit's work is bounded by `_check_profile_work`.
    """
    pairs = _pair_range(text)
    top = pairs[-1]
    nyquist = 1.0 / (2.0 * cfg.fine_step)
    if not 2 * top * cfg.resonator.fsr < nyquist:
        raise ConfigurationError(
            f"--pairs: pair {top} beats at {2 * top * cfg.resonator.fsr / 1e12:.6g} THz, "
            f"not below the {nyquist / 1e12:.6g} THz Nyquist frequency of "
            "[scan] fine_step_ps")
    try:
        pair_for_index(cfg.resonator, top)
    except DomainError as exc:
        raise ConfigurationError(f"--pairs: pair {top}: {exc}") from None
    _check_profile_work(cfg, pairs, "--pairs")
    try:
        program = select_pairs(cfg.resonator, pairs, cfg.channel_width)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[wss] channel_width_ghz: {exc}") from None
    return list(pairs), program


def _check_profile_work(cfg: ScenarioConfig, pairs: range, label: str) -> None:
    """Reject a fit of `pairs` in the multi window that would take too long.

    fit_fringe profiles tau0 on `tau0_profile_points` offsets, each a pass over
    the multi window: at most MAX_SCAN_POINTS in all (so a single pair, one
    offset, always passes).  The count depends only on the extreme detunings,
    so only the end pairs are built: a range can name more pairs than fit in
    memory.
    """
    detunings = [float(pair_for_index(cfg.resonator, m).detuning)
                 for m in sorted({pairs[0], pairs[-1]})]
    work = tau0_profile_points(detunings) * len(cfg.delay_scan("multi"))
    if work > MAX_SCAN_POINTS:
        raise ConfigurationError(
            f"{label} {pairs[0]}-{pairs[-1]} with [scan] multi_span_ps, [scan] fine_step_ps: "
            f"the tau0 profile would take {work:,} delay points, above {MAX_SCAN_POINTS:,}")


def _write_manifest(out_dir, cfg: ScenarioConfig, name: str, seed: int, args: dict):
    lines = [
        f"scenario = {name}",
        f"seed = {seed}",
        f"freqbin_version = {__version__}",
        f"numpy_version = {np.__version__}",
    ]
    for key, value in sorted(args.items()):
        lines.append(f"arg_{key} = {value}")
    for section, items in cfg.raw:
        lines.append(f"[{section}]")
        for key, value in items:
            lines.append(f"{key} = {value}")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fringe_model(cfg: ScenarioConfig, indices, phi: float) -> FringeModel:
    env = Envelope.from_fwhm(cfg.resonator.fwhm)
    pairs = tuple(
        (float(pair_for_index(cfg.resonator, m).detuning), cfg.visibility, phi)
        for m in indices
    )
    return FringeModel(pairs, cfg.snapped_tau0, 0.0, env)


def _sim(cfg, model, scan, seed):
    n = len(model.pairs)
    accidental = accidental_rate(cfg.singles_signal * n, cfg.singles_idler * n,
                                 cfg.detector.coincidence_window)
    return simulate_fringe(model, scan, cfg.detector, cfg.pair_rate * n, seed,
                           accidental=accidental)


def _fit_scan(cfg, out_dir, stem, model, window, seed, **fit_options):
    """Simulate delay window `window`, write `<stem>.csv`, fit it, write `<stem>_fit.txt`."""
    ds = _sim(cfg, model, cfg.delay_scan(window), seed)
    ds.to_csv(os.path.join(out_dir, f"{stem}.csv"))
    res = fit_fringe(ds, [d for d, _, _ in model.pairs], sigma=None, **fit_options)
    with open(os.path.join(out_dir, f"{stem}_fit.txt"), "w") as fh:
        fh.write(res.report())
    return res


def _write_curve(path, taus, values) -> None:
    with open(path, "w") as fh:
        fh.write("delay_ps,probability\n")
        write_rows(fh, taus * 1e12, values)


def _run_spectrum(cfg, out_dir, seed):
    model = cfg.resonator
    freqs = cfg.transmission_sweep()
    trans = transmission(model, freqs)
    with open(os.path.join(out_dir, "transmission.csv"), "w") as fh:
        fh.write("frequency_thz,transmittance\n")
        fh.write("".join(map("{:.9g},{:.9g}\n".format, (freqs / 1e12).tolist(), trans.tolist())))

    scan = singles_spectrum_scan(
        model, cfg.scan_band, cfg.scan_step, cfg.channel_width,
        cfg.scan_line_flux, cfg.detector.dark_rate, cfg.scan_dwell, seed,
    )
    counts = np.array([n for _, n in scan])
    with open(os.path.join(out_dir, "singles_scan.csv"), "w") as fh:
        fh.write("center_thz,counts\n")
        write_rows(fh, np.array([center / 1e12 for center, _ in scan]), counts)

    lines = resonance_lines(model, cfg.scan_band)
    return "\n".join([
        "scenario = spectrum",
        f"q_factor = {q_factor(model.pump_frequency, model.fwhm)!r}",
        f"lines_in_band = {len(lines)}",
        f"scan_points = {len(scan)}",
        f"scan_counts_max = {int(counts.max())}",
        f"scan_counts_min = {int(counts.min())}",
    ]) + "\n"


def _run_fig2(cfg, out_dir, seed):
    model = _fringe_model(cfg, [2], cfg.theta + cfg.phi_instr)

    coarse_scan = cfg.delay_scan("coarse")
    coarse = _sim(cfg, model, coarse_scan, seed)
    coarse.to_csv(os.path.join(out_dir, "coarse.csv"))
    _write_curve(os.path.join(out_dir, "curve_coarse.csv"),
                 coarse_scan.grid(), hom_multi(model, coarse_scan.grid()))
    env_fit = fit_envelope(coarse)
    with open(os.path.join(out_dir, "envelope_fit.txt"), "w") as fh:
        fh.write(env_fit.report())

    za = _fit_scan(cfg, out_dir, "fine_zero", model, "fine_zero", seed + 1)
    zb = _fit_scan(cfg, out_dir, "fine_offset", model, "fine_offset", seed + 2)
    return "\n".join([
        "scenario = fig2",
        f"fwhm_true_hz = {float(cfg.resonator.fwhm)!r}",
        f"fwhm_fit_hz = {env_fit.params['fwhm']!r} +/- {env_fit.sigmas['fwhm']!r}",
        f"tau0_fit_s = {env_fit.params['tau0']!r}",
        f"visibility_zero = {za.visibility_clamped!r} +/- {za.sigmas['visibility']!r}",
        f"visibility_offset = {zb.visibility_clamped!r} +/- {zb.sigmas['visibility']!r}",
        f"phi_zero = {za.phi!r} +/- {za.sigmas['phi']!r}",
        f"oscillation_period_ps = {1e12 / model.pairs[0][0]!r}",
    ]) + "\n"


def _run_fig3(cfg, out_dir, seed, indices, program):
    model = _fringe_model(cfg, indices, cfg.theta + cfg.phi_instr)
    routed = route_lines(program, [
        line
        for m in indices
        for line in (pair_for_index(cfg.resonator, m).signal,
                     pair_for_index(cfg.resonator, m).idler)
    ])
    single = len(indices) == 1
    res = _fit_scan(cfg, out_dir, "fringe", model, "pair" if single else "multi", seed,
                    fit_detuning=single)
    lines = ["scenario = fig3",
             f"pairs = {','.join(str(m) for m in indices)}",
             f"wss_program = {format_passbands(program)}",
             f"wss_lines_routed = {sum(len(v) for v in routed.values())}",
             f"visibility = {res.visibility_clamped!r} +/- {res.sigmas['visibility']!r}",
             f"phi = {res.phi!r} +/- {res.sigmas['phi']!r}"]
    if single:
        period_fit = 1.0 / res.params["detuning"]
        period_sigma = res.sigmas["detuning"] / res.params["detuning"] ** 2
        lines += [
            f"period_fit_ps = {period_fit * 1e12!r} +/- {period_sigma * 1e12!r}",
            f"period_expected_ps = {1e12 / model.pairs[0][0]!r}",
        ]
    else:
        grid = cfg.delay_scan("multi").grid()
        _write_curve(os.path.join(out_dir, "curve.csv"), grid, hom_multi(model, grid))
        lines += [
            f"revival_period_ps = {revival_period(cfg.resonator.fsr) * 1e12!r}",
            f"dip_fwhm_ps = {central_dip_fwhm(model) * 1e12!r}",
        ]
    return "\n".join(lines) + "\n"


def _run_fig4(cfg, out_dir, seed, phase_deg):
    theta_t = math.radians(phase_deg) % (2.0 * math.pi)
    alpha_hwp = hwp_angle_for_phase(theta_t)
    theta_real = phase_from_stack(stack_for_phase(theta_t))
    phi = theta_real + cfg.phi_instr
    lines = ["scenario = fig4",
             f"phase_target_deg = {float(phase_deg)!r}",
             f"hwp_angle_rad = {alpha_hwp!r}",
             f"phase_realized_rad = {theta_real!r}"]

    for stem, indices, window, sub in (
        ("single", [2], "pair", 0),
        ("multi", _FIG4_MULTI, "multi", 1),
    ):
        model = _fringe_model(cfg, indices, phi)
        res = _fit_scan(cfg, out_dir, stem, model, window, seed + sub)
        err = (res.phi - theta_t + math.pi) % (2.0 * math.pi) - math.pi
        lines += [
            f"{stem}_visibility = {res.visibility_clamped!r} +/- {res.sigmas['visibility']!r}",
            f"{stem}_phi = {res.phi!r} +/- {res.sigmas['phi']!r}",
            f"{stem}_phi_error = {err!r}",
        ]
    return "\n".join(lines) + "\n"


def _run_fig5(cfg, out_dir, seed):
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
