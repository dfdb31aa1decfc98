"""Flat INI-style configuration for the scenario runner.

Every key has a built-in default, so an empty (or absent) file is a valid
configuration; file values override defaults section by section.  Each key
is declared once, as a row of `_KEYS`: its default text, the dataclass field
it fills (the fields are made from these rows), the exact conversion to SI
units and the bound the converted value must meet.  Each delay window the
scenarios scan is declared once, as a row of `_SCANS`, and is built and
checked when the config loads.  Phases are accepted in degrees where the
experimental convention uses them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import make_dataclass

import numpy as np

from .comb import ResonatorModel, ghz, mhz, thz
from .counting import MAX_SCAN_POINTS, DetectorModel, ScanConfig
from .errors import ConfigurationError, DomainError, NonPhysicalStateError
from .fit import _MAX_SAMPLES, MIN_ENVELOPE_SPAN_PS, MIN_FIT_POINTS
from .hom import revival_period
from .states import restricted_density
from .wss import FilterProgram

__all__ = [
    "ScenarioConfig",
    "TomographyInputs",
    "load_config",
    "format_passbands",
]

_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_UNIT = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_SAMPLES = (lambda v: 2 <= v <= _MAX_SAMPLES, f"must lie in [2, {_MAX_SAMPLES:,}]")
_SEED = (lambda v: 0 <= v < 2**64, "must lie in [0, 2**64)")
_ns = lambda x: x * 1e-9
_ps = lambda x: x * 1e-12

# (section, key, default text, field, conversion, bound).  Resonator, detector
# and tomography rows fill ResonatorModel, DetectorModel and TomographyInputs;
# the rest fill ScenarioConfig, whose fields follow the rows (a nested section
# is one field at its first row; `raw` is last).  A conversion of `int` parses
# the text as an integer; every other receives the text parsed as a float.
# `scan_band_thz` holds two comma-separated values, each converted and bounded.
_KEYS = (
    ("resonator", "pump_thz", "193.5", "pump_frequency", thz, _POSITIVE),
    ("resonator", "fsr_ghz", "99.03", "fsr", ghz, _POSITIVE),
    ("resonator", "fwhm_mhz", "190.41", "fwhm", mhz, _POSITIVE),
    ("resonator", "extinction", "0.9", "extinction", float, _UNIT),
    ("detector", "efficiency_signal", "0.5", "efficiency_signal", float, _UNIT),
    ("detector", "efficiency_idler", "0.5", "efficiency_idler", float, _UNIT),
    ("detector", "dark_rate_hz", "100.0", "dark_rate", float, _NON_NEGATIVE),
    ("detector", "coincidence_window_ns", "1.0", "coincidence_window", _ns, _POSITIVE),
    ("source", "pair_rate_hz", "67.0", "pair_rate", float, _POSITIVE),
    ("source", "singles_signal_hz", "10000.0", "singles_signal", float, _NON_NEGATIVE),
    ("source", "singles_idler_hz", "10000.0", "singles_idler", float, _NON_NEGATIVE),
    ("state", "visibility", "0.84", "visibility", float, _UNIT),
    ("state", "tau0_ns", "0.3", "tau0", _ns, _NON_NEGATIVE),
    ("state", "theta_deg", "0.0", "theta", math.radians, None),
    ("state", "phi_instr_rad", "0.0", "phi_instr", float, None),
    ("scan", "coarse_step_ps", "2.0", "coarse_step", _ps, _POSITIVE),
    ("scan", "fine_step_ps", "0.1", "fine_step", _ps, _POSITIVE),
    ("scan", "span_ns", "2.4", "span", _ns, _POSITIVE),
    ("scan", "fine_span_ps", "4.0", "fine_span", _ps, _POSITIVE),
    ("scan", "fine_offset_ns", "2.0", "fine_offset", _ns, _NON_NEGATIVE),
    ("scan", "multi_span_ps", "16.0", "multi_span", _ps, _POSITIVE),
    ("scan", "dwell_single_s", "60.0", "dwell_single", float, _POSITIVE),
    ("scan", "dwell_multi_s", "30.0", "dwell_multi", float, _POSITIVE),
    ("wss", "channel_width_ghz", "20.0", "channel_width", ghz, _POSITIVE),
    ("wss", "scan_step_ghz", "33.01", "scan_step", ghz, _POSITIVE),
    ("wss", "scan_line_flux_hz", "2000.0", "scan_line_flux", float, _NON_NEGATIVE),
    ("wss", "scan_dwell_s", "1.0", "scan_dwell", float, _POSITIVE),
    ("wss", "scan_band_thz", "193.0,194.0", "scan_band", thz, _POSITIVE),
    ("tomography", "balance", "0.701", "balance", float, _UNIT),
    ("tomography", "sigma_balance", "0.005", "sigma_balance", float, _NON_NEGATIVE),
    ("tomography", "visibility", "0.7713", "visibility", float, _UNIT),
    ("tomography", "sigma_visibility", "0.0193", "sigma_visibility", float, _NON_NEGATIVE),
    ("tomography", "phase_rad", "-0.1168", "phase", float, None),
    ("tomography", "sigma_phase", "0.1094", "sigma_phase", float, _NON_NEGATIVE),
    ("tomography", "theta_target_deg", "0.0", "theta_target", math.radians, None),
    ("tomography", "samples", "20000", "samples", int, _SAMPLES),
    ("tomography", "total_rate_hz", "140.68", "total_rate", float, _NON_NEGATIVE),
    ("run", "seed", "12345", "seed", int, _SEED),
)

DEFAULTS: dict[str, dict[str, str]] = {}
for _row in _KEYS:
    DEFAULTS.setdefault(_row[0], {})[_row[1]] = _row[2]


# name: (keys that set the window, its (start, stop, step, dwell) from the
# config).  fig2 scans coarse, fine_zero and fine_offset; fig3 and fig4 scan
# pair and multi, centred on the revival-snapped delay offset.
_SCANS = {
    "coarse": ("[scan] span_ns, [scan] coarse_step_ps",
               lambda c: (0.0, c.span, c.coarse_step, c.dwell_single)),
    "fine_zero": ("[scan] fine_span_ps, [scan] fine_step_ps",
                  lambda c: (0.0, c.fine_span, c.fine_step, c.dwell_single)),
    "fine_offset": ("[scan] fine_offset_ns, [scan] fine_span_ps, [scan] fine_step_ps",
                    lambda c: (c.fine_offset, c.fine_offset + c.fine_span,
                               c.fine_step, c.dwell_single)),
    "pair": ("[state] tau0_ns, [scan] fine_span_ps, [scan] fine_step_ps",
             lambda c: (c.snapped_tau0 - c.fine_span / 2.0, c.snapped_tau0 + c.fine_span / 2.0,
                        c.fine_step, c.dwell_single)),
    "multi": ("[state] tau0_ns, [scan] multi_span_ps, [scan] fine_step_ps",
              lambda c: (c.snapped_tau0 - c.multi_span / 2.0, c.snapped_tau0 + c.multi_span / 2.0,
                         c.fine_step, c.dwell_multi)),
}


class _Scenario:
    """ScenarioConfig's derived values; its fields come from `_KEYS`."""

    @property
    def snapped_tau0(self) -> float:
        """tau0 on the revival grid j/(2 fsr): each fringe carries its prepared phase."""
        period = revival_period(self.resonator.fsr)
        return float(np.rint(self.tau0 / period)) * period

    def delay_scan(self, name: str) -> ScanConfig:
        """Delay window `name` of `_SCANS`, checked for the fits that scan it."""
        keys, bounds = _SCANS[name]
        try:
            scan = ScanConfig(*bounds(self))
            if len(scan) < MIN_FIT_POINTS:
                raise DomainError(f"{len(scan)}-point window; the fits need at least {MIN_FIT_POINTS}")
            # The span fit_envelope measures: last minus first delay, in ps.
            last = scan.tau_start + scan.tau_step * (len(scan) - 1)
            if name == "coarse" and last * 1e12 - scan.tau_start * 1e12 < MIN_ENVELOPE_SPAN_PS:
                raise DomainError("the envelope fit needs a scan spanning at least 1 ns")
        except DomainError as exc:
            raise ConfigurationError(f"{keys}: {exc}") from None
        return scan

    def transmission_sweep(self) -> np.ndarray:
        """Spectrum's transmission frequencies (Hz): pump +/- 1.5 fsr in fwhm/10 steps."""
        model = self.resonator
        half, step = 3 * model.fsr // 2, max(model.fwhm // 10, 1)
        start, stop = model.pump_frequency - half, model.pump_frequency + half + step
        keys = "[resonator] pump_thz, [resonator] fsr_ghz, [resonator] fwhm_mhz"
        if not start > 0:
            raise ConfigurationError(f"{keys}: the sweep must stay above 0 Hz")
        if len(range(start, stop, step)) > MAX_SCAN_POINTS:
            raise ConfigurationError(f"{keys}: the sweep would exceed {MAX_SCAN_POINTS:,} points")
        return np.arange(start, stop, step, dtype=np.float64)


def _frozen(name, fields, doc, bases=()):
    """Frozen dataclass of `fields`, placed in this module so it pickles."""
    return make_dataclass(name, fields, bases=bases, frozen=True,
                          namespace={"__doc__": doc, "__module__": __name__})


TomographyInputs = _frozen(
    "TomographyInputs", [row[3] for row in _KEYS if row[0] == "tomography"],
    "Measured (p, V, phi) summary feeding the density-matrix scenario.")
ScenarioConfig = _frozen(
    "ScenarioConfig", [*dict.fromkeys(section if section in ("resonator", "detector", "tomography")
                                      else field for section, _, _, field, _, _ in _KEYS), "raw"],
    "Resolved scenario parameters (SI units) plus the raw echo.", (_Scenario,))


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


def _value(raw, label, convert=float, bound=None):
    """One config number: parsed, finite, converted exactly, inside its bound."""
    try:
        number = (int if convert is int else float)(raw)
    except ValueError:
        raise ConfigurationError(f"{label}: expected a number, got {raw!r}") from None
    if not -math.inf < number < math.inf:
        raise ConfigurationError(f"{label}: expected a finite number, got {raw!r}")
    try:
        value = convert(number)
    except OverflowError:
        raise ConfigurationError(f"{label}: expected a finite number, got {raw!r}, "
                                 "which overflows once scaled to hertz") from None
    if bound is not None and not bound[0](value):
        raise ConfigurationError(f"{label} {bound[1]} (got {raw!r})")
    return value


def _build(merged) -> ScenarioConfig:
    values = {section: {} for section in merged}
    for section, key, _, field, convert, bound in _KEYS:
        raw, label = merged[section][key], f"[{section}] {key}"
        if field == "scan_band":
            parts = raw.split(",")
            if len(parts) != 2:
                raise ConfigurationError(f"{label}: expected 'low,high', got {raw!r}")
            values[section][field] = tuple(_value(p, label, convert, bound) for p in parts)
        else:
            values[section][field] = _value(raw, label, convert, bound)

    res, wss, tomo = (values[s] for s in ("resonator", "wss", "tomography"))
    if not res["fwhm"] < res["fsr"]:
        raise ConfigurationError(
            "[resonator] fwhm_mhz must be below [resonator] fsr_ghz (resolvable modes)")
    low, high = wss["scan_band"]
    if not low < high:
        raise ConfigurationError("[wss] scan_band_thz: low must be below high")
    try:
        restricted_density(tomo["balance"], tomo["visibility"], tomo["phase"])
    except NonPhysicalStateError as exc:
        raise ConfigurationError(
            f"[tomography] balance and [tomography] visibility: {exc}") from None

    if (high - low) // wss["scan_step"] >= MAX_SCAN_POINTS:
        raise ConfigurationError("[wss] scan_band_thz / [wss] scan_step_ghz: "
                                 f"the scan grid would exceed {MAX_SCAN_POINTS:,} points")

    cfg = ScenarioConfig(
        resonator=ResonatorModel(**values.pop("resonator")),
        detector=DetectorModel(**values.pop("detector")),
        tomography=TomographyInputs(**values.pop("tomography")),
        raw=tuple((s, tuple(sorted(kv.items()))) for s, kv in sorted(merged.items())),
        **{field: v for fields in values.values() for field, v in fields.items()},
    )
    for name in _SCANS:
        cfg.delay_scan(name)
    cfg.transmission_sweep()
    return cfg


def format_passbands(program: FilterProgram) -> str:
    """'center_ghz,width_ghz,port; ...' for each passband, values as repr."""
    return "; ".join(
        f"{band.center / 1e9!r},{band.width / 1e9!r},{band.output_port}"
        for band in program.passbands
    )
