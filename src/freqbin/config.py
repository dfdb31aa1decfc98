"""Flat INI-style configuration for the scenario runner.

Every key has a built-in default, so an empty (or absent) file is a valid
configuration; file values override defaults section by section.  Phases
are accepted in degrees where the experimental convention uses them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .comb import ResonatorModel, ghz, mhz, thz
from .counting import DetectorModel
from .errors import ConfigurationError, FreqbinError
from .wss import FilterProgram, Passband

__all__ = [
    "ScenarioConfig",
    "TomographyInputs",
    "load_config",
    "default_config",
    "parse_passbands",
    "format_passbands",
]

DEFAULTS: dict[str, dict[str, str]] = {
    "resonator": {
        "pump_thz": "193.5",
        "fsr_ghz": "99.03",
        "fwhm_mhz": "190.41",
        "extinction": "0.9",
    },
    "detector": {
        "efficiency_signal": "0.5",
        "efficiency_idler": "0.5",
        "dark_rate_hz": "100.0",
        "coincidence_window_ns": "1.0",
    },
    "source": {
        "pair_rate_hz": "67.0",
        "singles_signal_hz": "10000.0",
        "singles_idler_hz": "10000.0",
    },
    "state": {
        "visibility": "0.84",
        "tau0_ns": "0.3",
        "theta_deg": "0.0",
        "phi_instr_rad": "0.0",
    },
    "scan": {
        "coarse_step_ps": "2.0",
        "fine_step_ps": "0.1",
        "span_ns": "2.4",
        "fine_span_ps": "4.0",
        "fine_offset_ns": "2.0",
        "multi_span_ps": "16.0",
        "dwell_single_s": "60.0",
        "dwell_multi_s": "30.0",
    },
    "wss": {
        "channel_width_ghz": "20.0",
        "scan_step_ghz": "33.01",
        "scan_line_flux_hz": "2000.0",
        "scan_dwell_s": "1.0",
        "scan_band_thz": "193.0,194.0",
    },
    "tomography": {
        "balance": "0.701",
        "sigma_balance": "0.005",
        "visibility": "0.7713",
        "sigma_visibility": "0.0193",
        "phase_rad": "-0.1168",
        "sigma_phase": "0.1094",
        "theta_target_deg": "0.0",
        "samples": "20000",
        "total_rate_hz": "140.68",
    },
    "run": {
        "seed": "12345",
    },
}


@dataclass(frozen=True)
class TomographyInputs:
    """Measured (p, V, phi) summary feeding the density-matrix scenario."""

    balance: float
    sigma_balance: float
    visibility: float
    sigma_visibility: float
    phase: float
    sigma_phase: float
    theta_target: float
    samples: int
    total_rate: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved scenario parameters (SI units) plus the raw echo."""

    resonator: ResonatorModel
    detector: DetectorModel
    pair_rate: float
    singles_signal: float
    singles_idler: float
    visibility: float
    tau0: float
    theta: float
    phi_instr: float
    coarse_step: float
    fine_step: float
    span: float
    fine_span: float
    fine_offset: float
    multi_span: float
    dwell_single: float
    dwell_multi: float
    channel_width: int
    scan_step: int
    scan_line_flux: float
    scan_dwell: float
    scan_band: tuple[int, int]
    tomography: TomographyInputs
    seed: int
    raw: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]


def default_config() -> ScenarioConfig:
    return _build(DEFAULTS)


def load_config(path=None) -> ScenarioConfig:
    """Parse an INI file over the defaults; None loads pure defaults."""
    merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc
        for section in parser.sections():
            if section not in merged:
                raise ConfigurationError(
                    f"unknown config section [{section}] "
                    f"(known: {', '.join(sorted(merged))})"
                )
            for key, value in parser.items(section):
                if key not in merged[section]:
                    raise ConfigurationError(
                        f"unknown key '{key}' in section [{section}] "
                        f"(known: {', '.join(sorted(merged[section]))})"
                    )
                merged[section][key] = value
    return _build(merged)


def _number(merged, section, key, cast=float):
    return _finite(merged[section][key], f"[{section}] {key}", cast)


def _finite(raw, label, cast=float):
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{label}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{label}: expected a finite number, got {raw!r}")
    return value


def _hertz(raw, label, to_hz):
    """Integer hertz via thz/ghz/mhz; a value that overflows once scaled is an error."""
    try:
        return to_hz(_finite(raw, label))
    except OverflowError:
        raise ConfigurationError(f"{label}: expected a finite number, got {raw!r}, "
                                 "which overflows once scaled to hertz") from None


def _build(merged) -> ScenarioConfig:
    num = lambda s, k: _number(merged, s, k)
    hz = lambda s, k, to_hz: _hertz(merged[s][k], f"[{s}] {k}", to_hz)
    try:
        resonator = ResonatorModel(
            pump_frequency=hz("resonator", "pump_thz", thz),
            fsr=hz("resonator", "fsr_ghz", ghz),
            fwhm=hz("resonator", "fwhm_mhz", mhz),
            extinction=num("resonator", "extinction"),
        )
        detector = DetectorModel(
            efficiency_signal=num("detector", "efficiency_signal"),
            efficiency_idler=num("detector", "efficiency_idler"),
            dark_rate=num("detector", "dark_rate_hz"),
            coincidence_window=num("detector", "coincidence_window_ns") * 1e-9,
        )
        band_raw = merged["wss"]["scan_band_thz"]
        parts = band_raw.split(",")
        if len(parts) != 2:
            raise ConfigurationError(
                f"[wss] scan_band_thz: expected 'low,high', got {band_raw!r}"
            )
        scan_band = tuple(_hertz(part, "[wss] scan_band_thz", thz) for part in parts)
        if not scan_band[0] < scan_band[1]:
            raise ConfigurationError("[wss] scan_band_thz: low must be below high")
        tomography = TomographyInputs(
            balance=num("tomography", "balance"),
            sigma_balance=num("tomography", "sigma_balance"),
            visibility=num("tomography", "visibility"),
            sigma_visibility=num("tomography", "sigma_visibility"),
            phase=num("tomography", "phase_rad"),
            sigma_phase=num("tomography", "sigma_phase"),
            theta_target=math.radians(num("tomography", "theta_target_deg")),
            samples=_number(merged, "tomography", "samples", int),
            total_rate=num("tomography", "total_rate_hz"),
        )
        cfg = ScenarioConfig(
            resonator=resonator,
            detector=detector,
            pair_rate=num("source", "pair_rate_hz"),
            singles_signal=num("source", "singles_signal_hz"),
            singles_idler=num("source", "singles_idler_hz"),
            visibility=num("state", "visibility"),
            tau0=num("state", "tau0_ns") * 1e-9,
            theta=math.radians(num("state", "theta_deg")),
            phi_instr=num("state", "phi_instr_rad"),
            coarse_step=num("scan", "coarse_step_ps") * 1e-12,
            fine_step=num("scan", "fine_step_ps") * 1e-12,
            span=num("scan", "span_ns") * 1e-9,
            fine_span=num("scan", "fine_span_ps") * 1e-12,
            fine_offset=num("scan", "fine_offset_ns") * 1e-9,
            multi_span=num("scan", "multi_span_ps") * 1e-12,
            dwell_single=num("scan", "dwell_single_s"),
            dwell_multi=num("scan", "dwell_multi_s"),
            channel_width=hz("wss", "channel_width_ghz", ghz),
            scan_step=hz("wss", "scan_step_ghz", ghz),
            scan_line_flux=num("wss", "scan_line_flux_hz"),
            scan_dwell=num("wss", "scan_dwell_s"),
            scan_band=scan_band,
            tomography=tomography,
            seed=_number(merged, "run", "seed", int),
            raw=tuple(
                (section, tuple(sorted(kv.items())))
                for section, kv in sorted(merged.items())
            ),
        )
    except ConfigurationError:
        raise
    except FreqbinError as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    positive = {
        "[source] pair_rate_hz": cfg.pair_rate,
        "[scan] coarse_step_ps": cfg.coarse_step,
        "[scan] fine_step_ps": cfg.fine_step,
        "[scan] span_ns": cfg.span,
        "[scan] fine_span_ps": cfg.fine_span,
        "[scan] multi_span_ps": cfg.multi_span,
        "[scan] dwell_single_s": cfg.dwell_single,
        "[scan] dwell_multi_s": cfg.dwell_multi,
        "[wss] channel_width_ghz": cfg.channel_width,
        "[wss] scan_step_ghz": cfg.scan_step,
        "[wss] scan_dwell_s": cfg.scan_dwell,
        "[tomography] samples": cfg.tomography.samples,
    }
    for label, value in positive.items():
        if not value > 0:
            raise ConfigurationError(f"{label} must be positive (got {value})")
    non_negative = {
        "[source] singles_signal_hz": cfg.singles_signal,
        "[source] singles_idler_hz": cfg.singles_idler,
        "[wss] scan_line_flux_hz": cfg.scan_line_flux,
        "[tomography] sigma_balance": cfg.tomography.sigma_balance,
        "[tomography] sigma_visibility": cfg.tomography.sigma_visibility,
        "[tomography] sigma_phase": cfg.tomography.sigma_phase,
        "[tomography] total_rate_hz": cfg.tomography.total_rate,
    }
    for label, value in non_negative.items():
        if value < 0:
            raise ConfigurationError(f"{label} must be non-negative (got {value})")
    if not 0.0 <= cfg.visibility <= 1.0:
        raise ConfigurationError("[state] visibility must lie in [0, 1]")
    if cfg.tau0 < 0:
        raise ConfigurationError("[state] tau0_ns must be non-negative")
    if cfg.fine_offset < 0:
        raise ConfigurationError("[scan] fine_offset_ns must be non-negative")


def parse_passbands(text: str) -> FilterProgram:
    """Parse 'center_ghz,width_ghz,port; ...' into a filter program."""
    bands = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigurationError(
                f"passband entry {chunk!r}: expected center_ghz,width_ghz,port"
            )
        try:
            center, width, port = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"passband entry {chunk!r}: {exc}") from exc
        bands.append(Passband(ghz(center), ghz(width), port))
    if not bands:
        raise ConfigurationError("passband list is empty")
    try:
        return FilterProgram(tuple(bands))
    except FreqbinError as exc:
        raise ConfigurationError(str(exc)) from exc


def format_passbands(program: FilterProgram) -> str:
    """Inverse of parse_passbands."""
    return "; ".join(
        f"{band.center / 1e9!r},{band.width / 1e9!r},{band.output_port}"
        for band in program.passbands
    )
