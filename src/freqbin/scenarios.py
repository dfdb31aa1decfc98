"""End-to-end scenario runner: simulate, fit, and write artifact files.

Each scenario writes its data/fit files plus a manifest (resolved config,
seed, package and numpy versions) into the output directory and returns a
text summary.  Each delay scan is a `_Scan` record that `_run_scans`
simulates, writes and fits.  A scan draws from the run seed plus its seed
offset (fig2: 0, 1, 2; fig4: 0, 1; all others: 0), wrapped into
[0, 2**64), so the run is a pure function of (config, seed).  Scans with
the same offset share their random numbers (ROADMAP item 4 keys them apart).

The delay windows and the transmission sweep come from the config, which
checks them at load (ordered, 8 to 1,000,000 points, a coarse span of at
least 1 ns, a sweep above 0 Hz), so none fails after output is written.
`phase` must be a finite number and `pairs` a string, both checked first.
fig3's `--pairs` is checked against the comb, the WSS channel width, the
fine step's Nyquist frequency and `fit.check_multiplexed_scan` before any
output, and its multiplexed dip width is found there too; fig4's fixed
multiplexed fit passes the same check.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os

import numpy as np

from . import __version__
from .comb import pair_for_index, q_factor, resonance_lines, transmission
from .config import _SEED, ScenarioConfig, format_passbands
from .counting import accidental_rate, computational_basis_counts, simulate_fringe, write_rows
from .errors import ConfigurationError, DomainError
from .fit import (check_multiplexed_scan, estimate_balance, fit_envelope, fit_fringe,
                  reconstruct)
from .hom import Envelope, FringeModel, central_dip_fwhm, hom_multi, revival_period
from .states import (
    density_report,
    hwp_angle_for_phase,
    phase_from_stack,
    stack_for_phase,
)
from .wss import route_lines, select_pairs, singles_spectrum_scan

__all__ = ["run_scenario", "SCENARIOS"]

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
    if pairs is not None and not isinstance(pairs, str):
        raise ConfigurationError(f"--pairs: expected a string like 5 or 2-5, got {pairs!r}")
    if phase is not None:
        try:
            value = float(phase)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ConfigurationError(f"--phase: expected a finite number, got {phase!r}")
        phase = value
    kwargs = {}
    if name == "fig3":
        if pairs is None:
            raise ConfigurationError("fig3 requires --pairs (e.g. 5 or 2-5)")
        kwargs["indices"], kwargs["program"] = _fig3_pairs(cfg, pairs)
        kwargs["dip_fwhm"] = _fig3_dip_fwhm(cfg, kwargs["indices"])
    if name == "fig4":
        _check_multiplexed_scan(cfg, _FIG4_MULTI, "fig4 pairs")
        kwargs["phase_deg"] = 0.0 if phase is None else phase
    if seed is None:
        seed = cfg.seed
    else:  # 1.5 is refused, not truncated to seed 1
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ConfigurationError(f"--seed must be an integer (got {seed!r})") from None
        if not _SEED[0](seed):
            raise ConfigurationError(f"--seed {_SEED[1]} (got {seed})")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out: cannot create directory {str(out_dir)!r}: "
                                 f"{exc.strerror or exc}") from None
    manifest = [("scenario", name), ("seed", seed), ("freqbin_version", __version__),
                ("numpy_version", np.__version__)]
    if pairs is not None:
        manifest.append(("arg_pairs", pairs))
    if phase is not None:
        manifest.append(("arg_phase", phase))
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(_format(manifest))
        for section, items in cfg.raw:
            fh.write(f"[{section}]\n" + _format(items))
    summary = _format([("scenario", name), *_RUNNERS[name](cfg, out_dir, seed, **kwargs)])
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
    A multiplexed fit is checked by `_check_multiplexed_scan`.
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
    _check_multiplexed_scan(cfg, pairs, "--pairs")
    try:
        program = select_pairs(cfg.resonator, pairs, cfg.channel_width)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[wss] channel_width_ghz: {exc}") from None
    return list(pairs), program


def _check_multiplexed_scan(cfg: ScenarioConfig, pairs: range, label: str) -> None:
    """`fit.check_multiplexed_scan` of `pairs` in the multi window, as a ConfigurationError.

    Pair m beats at 2 m FSR, an integer number of Hz, so the detunings are
    passed as a range: no list of pairs is built (a range can name more
    pairs than fit in memory).  The span is that of the grid's ends, as the
    fit computes it.
    """
    step, scan = 2 * cfg.resonator.fsr, cfg.delay_scan("multi")
    span = ((len(scan) - 1) * scan.tau_step + scan.tau_start) - scan.tau_start
    try:
        check_multiplexed_scan(range(step * pairs[0], step * pairs[-1] + 1, step), span,
                               len(scan))
    except DomainError as exc:
        raise ConfigurationError(f"{label} {pairs[0]}-{pairs[-1]} with [scan] multi_span_ps, "
                                 f"[scan] fine_step_ps: {exc}") from None


def _fig3_dip_fwhm(cfg: ScenarioConfig, indices) -> float | None:
    """The multiplexed dip's width (None for one pair), found before any output."""
    if len(indices) == 1:
        return None
    try:
        return central_dip_fwhm(_fringe_model(cfg, indices, cfg.theta + cfg.phi_instr))
    except DomainError as exc:
        raise ConfigurationError(
            f"[state] visibility, [state] theta_deg and [state] phi_instr_rad: {exc}"
        ) from None


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


@dataclasses.dataclass(frozen=True)
class _Scan:
    """One delay scan of a scenario: what is simulated, written and fitted."""

    stem: str
    window: str  # the config delay window
    model: FringeModel  # the truth the counts are drawn from
    # "fringe", "fringe-detuning" (detuning free) or "envelope"; the envelope
    # fit's report is envelope_fit.txt, every other <stem>_fit.txt
    fit: str = "fringe"
    seed_offset: int = 0
    curve: str | None = None  # the noise-free model curve file, if the scan writes one


def _run_scans(cfg, out_dir, seed, scans):
    """Simulate each scan, write `<stem>.csv`, its curve and its fit report; yield each fit.

    The fit functions are looked up at each fit, so a patch on this module reaches every call.
    """
    for scan in scans:
        delays = cfg.delay_scan(scan.window)
        ds = _sim(cfg, scan.model, delays, (seed + scan.seed_offset) % 2**64)
        ds.to_csv(os.path.join(out_dir, f"{scan.stem}.csv"))
        if scan.curve is not None:
            with open(os.path.join(out_dir, scan.curve), "w") as fh:
                fh.write("delay_ps,probability\n")
                write_rows(fh, ds.taus * 1e12, hom_multi(scan.model, ds.taus))
        if scan.fit == "envelope":
            res, report = fit_envelope(ds), "envelope_fit.txt"
        else:
            res = fit_fringe(ds, [d for d, _, _ in scan.model.pairs],
                             fit_detuning=scan.fit == "fringe-detuning")
            report = f"{scan.stem}_fit.txt"
        with open(os.path.join(out_dir, report), "w") as fh:
            fh.write(res.report())
        yield res


def _format(rows) -> str:
    """`key = value [+/- sigma]` lines: strings as they are, numbers as their repr."""
    lines = []
    for key, *values in rows:
        text = " +/- ".join(v if isinstance(v, str) else repr(v) for v in values)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _run_spectrum(cfg, out_dir, seed):
    model = cfg.resonator
    freqs = cfg.transmission_sweep()
    trans = transmission(model, freqs)
    with open(os.path.join(out_dir, "transmission.csv"), "w") as fh:
        fh.write("frequency_thz,transmittance\n")
        write_rows(fh, freqs / 1e12, trans)

    scan = singles_spectrum_scan(
        model, cfg.scan_band, cfg.scan_step, cfg.channel_width,
        cfg.scan_line_flux, cfg.detector.dark_rate, cfg.scan_dwell, seed,
    )
    counts = np.array([n for _, n in scan])
    with open(os.path.join(out_dir, "singles_scan.csv"), "w") as fh:
        fh.write("center_thz,counts\n")
        write_rows(fh, np.array([center / 1e12 for center, _ in scan]), counts)

    return [
        ("q_factor", q_factor(model.pump_frequency, model.fwhm)),
        ("lines_in_band", len(resonance_lines(model, cfg.scan_band))),
        ("scan_points", len(scan)),
        ("scan_counts_max", int(counts.max())),
        ("scan_counts_min", int(counts.min())),
    ]


def _run_fig2(cfg, out_dir, seed):
    model = _fringe_model(cfg, [2], cfg.theta + cfg.phi_instr)
    env_fit, za, zb = _run_scans(cfg, out_dir, seed, [
        _Scan("coarse", "coarse", model, "envelope", curve="curve_coarse.csv"),
        _Scan("fine_zero", "fine_zero", model, seed_offset=1),
        _Scan("fine_offset", "fine_offset", model, seed_offset=2),
    ])
    return [
        ("fwhm_true_hz", float(cfg.resonator.fwhm)),
        ("fwhm_fit_hz", env_fit.params["fwhm"], env_fit.sigmas["fwhm"]),
        ("tau0_fit_s", env_fit.params["tau0"]),
        ("visibility_zero", za.visibility, za.sigmas["visibility"]),
        ("visibility_offset", zb.visibility, zb.sigmas["visibility"]),
        ("phi_zero", za.phi, za.sigmas["phi"]),
        ("oscillation_period_ps", 1e12 / model.pairs[0][0]),
    ]


def _run_fig3(cfg, out_dir, seed, indices, program, dip_fwhm):
    model = _fringe_model(cfg, indices, cfg.theta + cfg.phi_instr)
    pairs = [pair_for_index(cfg.resonator, m) for m in indices]
    routed = route_lines(program, [line for p in pairs for line in (p.signal, p.idler)])
    single = len(indices) == 1
    scan = (_Scan("fringe", "pair", model, "fringe-detuning") if single
            else _Scan("fringe", "multi", model, curve="curve.csv"))
    res, = _run_scans(cfg, out_dir, seed, [scan])
    rows = [("pairs", ",".join(str(m) for m in indices)),
            ("wss_program", format_passbands(program)),
            ("wss_lines_routed", sum(len(v) for v in routed.values())),
            ("visibility", res.visibility, res.sigmas["visibility"]),
            ("phi", res.phi, res.sigmas["phi"])]
    if single:
        period_fit = 1.0 / res.params["detuning"]
        period_sigma = res.sigmas["detuning"] / res.params["detuning"] ** 2
        rows += [("period_fit_ps", period_fit * 1e12, period_sigma * 1e12),
                 ("period_expected_ps", 1e12 / model.pairs[0][0])]
    else:
        rows += [("revival_period_ps", revival_period(cfg.resonator.fsr) * 1e12),
                 ("dip_fwhm_ps", dip_fwhm * 1e12)]
    return rows


def _run_fig4(cfg, out_dir, seed, phase_deg):
    theta_t = math.radians(phase_deg) % (2.0 * math.pi)
    theta_real = phase_from_stack(stack_for_phase(theta_t))
    phi = theta_real + cfg.phi_instr
    rows = [("phase_target_deg", float(phase_deg)),
            ("hwp_angle_rad", hwp_angle_for_phase(theta_t)),
            ("phase_realized_rad", theta_real)]

    scans = [_Scan("single", "pair", _fringe_model(cfg, [2], phi)),
             _Scan("multi", "multi", _fringe_model(cfg, _FIG4_MULTI, phi), seed_offset=1)]
    for scan, res in zip(scans, _run_scans(cfg, out_dir, seed, scans)):
        err = (res.phi - theta_t + math.pi) % (2.0 * math.pi) - math.pi
        rows += [
            (f"{scan.stem}_visibility", res.visibility, res.sigmas["visibility"]),
            (f"{scan.stem}_phi", res.phi, res.sigmas["phi"]),
            (f"{scan.stem}_phi_error", err),
        ]
    return rows


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
    rows = [
        ("fidelity", recon.fidelity, recon.sigma_fidelity),
        ("theta_target", recon.theta_target),
        ("rejection_rate", recon.rejection_rate),
        ("samples_accepted", recon.samples_accepted),
        ("balance_input", t.balance, t.sigma_balance),
        ("counts_si", n1),
        ("counts_is", n2),
        ("balance_simulated", p_hat, sigma_p),
    ]
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(_format(rows))
    return rows


_RUNNERS = {"spectrum": _run_spectrum, "fig2": _run_fig2, "fig3": _run_fig3,
            "fig4": _run_fig4, "fig5": _run_fig5}
SCENARIOS = tuple(_RUNNERS)
