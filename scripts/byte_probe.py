"""Write the files that pin freqbin's output bytes under OUT, for `diff -r`.

    PYTHONPATH=src python scripts/byte_probe.py OUT

freqbin comes from PYTHONPATH and only its public API is used, so with
PYTHONPATH at another checkout's src/ this writes that checkout's files:
config.txt (the config classes' fields, and the repr of the stock config
and of one that overrides every key), csv/ (`write_rows` bytes), dense/
(the dense_scan benchmark's scans and a scan that crosses zero, read back
with and without their grid headers), envelope.txt and fringe.txt (fit
reports of several seeds and designs, interleaved, so state one fit left
for the next would show).
"""

import dataclasses
import math
import os
import sys

import numpy as np

import freqbin
from freqbin.config import ScenarioConfig, TomographyInputs, load_config
from freqbin.counting import write_rows

CFG = load_config(None)
ENVELOPE = freqbin.Envelope.from_fwhm(CFG.resonator.fwhm)


def case(indices, phi=CFG.theta + CFG.phi_instr):
    """(model, pair rate, accidental rate) of the stock scenarios' pairs `indices`."""
    n = len(indices)
    model = freqbin.FringeModel(
        tuple((float(freqbin.pair_for_index(CFG.resonator, m).detuning), CFG.visibility, phi)
              for m in indices), CFG.snapped_tau0, 0.0, ENVELOPE)
    accidental = freqbin.accidental_rate(CFG.singles_signal * n, CFG.singles_idler * n,
                                         CFG.detector.coincidence_window)
    return model, CFG.pair_rate * n, accidental


def simulate(scan, seed, model, rate, accidental):
    return freqbin.simulate_fringe(model, scan, CFG.detector, rate, seed, accidental=accidental)


# Every key of the config schema, each away from its default and inside its bound.
EVERY_KEY = """\
[resonator]
pump_thz = 194.0
fsr_ghz = 100.0
fwhm_mhz = 200.0
extinction = 0.8
[detector]
efficiency_signal = 0.6
efficiency_idler = 0.4
dark_rate_hz = 50.0
coincidence_window_ns = 0.5
[source]
pair_rate_hz = 80.0
singles_signal_hz = 12000.0
singles_idler_hz = 9000.0
[state]
visibility = 0.9
tau0_ns = 0.25
theta_deg = 90.0
phi_instr_rad = 0.25
[scan]
coarse_step_ps = 4.0
fine_step_ps = 0.25
span_ns = 2.0
fine_span_ps = 8.0
fine_offset_ns = 1.0
multi_span_ps = 32.0
dwell_single_s = 30.0
dwell_multi_s = 15.0
[wss]
channel_width_ghz = 25.0
scan_step_ghz = 50.0
scan_line_flux_hz = 1500.0
scan_dwell_s = 2.0
scan_band_thz = 193.25,193.75
[tomography]
balance = 0.65
sigma_balance = 0.01
visibility = 0.75
sigma_visibility = 0.02
phase_rad = 0.1
sigma_phase = 0.05
theta_target_deg = 45.0
samples = 5000
total_rate_hz = 100.0
[run]
seed = 7
"""


def write_config(path):
    ini = f"{path}.ini"
    with open(ini, "w") as fh:
        fh.write(EVERY_KEY)
    with open(path, "w") as fh:
        for cls in (ScenarioConfig, TomographyInputs):
            fh.write(f"{cls.__name__}: {' '.join(f.name for f in dataclasses.fields(cls))}\n")
        fh.write(f"stock: {load_config(None)!r}\nevery key: {load_config(ini)!r}\n")
    os.remove(ini)


def write_csv(out):
    taus_ps = (-10e-9 + 1e-13 * np.arange(200_001)) * 1e12
    counts = np.random.default_rng(0).poisson(4100.0, taus_ps.size)
    probability = 0.5 - 0.45 * np.cos(0.37 * taus_ps) * np.exp(-(taus_ps / 4e3) ** 2)
    for name, values in (("counts.csv", counts), ("probability.csv", probability)):
        with open(os.path.join(out, name), "w") as fh:
            # All rows, then single blocks either side of the kernel's 1,024-row threshold.
            for rows in (taus_ps.size, 1023, 1024, 1201):
                write_rows(fh, taus_ps[-rows:], values[-rows:])


def write_scan(out, name, scan, seed, model_rates):
    """Simulate `scan`, write it as NAME.csv and save what load_dataset reads
    back: with its grid headers as NAME_*.npy, and with them removed, so the
    delays come from the ps column, as NAME_column_*.npy."""
    path = os.path.join(out, f"{name}.csv")
    simulate(scan, seed, *model_rates).to_csv(path)
    with open(path) as fh:
        text = "".join(line for line in fh if not line.startswith("# tau_"))
    column = os.path.join(out, f"{name}_column.csv")
    with open(column, "w") as fh:
        fh.write(text)
    for stem, source in ((name, path), (f"{name}_column", column)):
        back = freqbin.load_dataset(source)
        np.save(os.path.join(out, f"{stem}_taus.npy"), back.taus)
        np.save(os.path.join(out, f"{stem}_counts.npy"), back.counts)
    os.remove(column)


def write_dense(out):
    dense, tau0 = case(range(2, 16)), CFG.snapped_tau0
    for i, dwell in enumerate((0.2, 30.0)):
        scan = freqbin.ScanConfig(tau0 - 10e-9, tau0 + 10e-9, CFG.fine_step, dwell)
        write_scan(out, f"grid{i}", scan, i, dense)
    # Crosses zero: to_csv writes one delay, 1.29e-14 ps, by repr in exponent
    # form, so the file is read whole by the np.loadtxt branch.
    write_scan(out, "zero", freqbin.ScanConfig(-80e-12, 80e-12, 0.1e-12, 60.0), 2, dense)


def write_envelope(path):
    fig2, coarse = case([2]), CFG.delay_scan("coarse")
    other = freqbin.ScanConfig(0.0, CFG.span, 3e-12, CFG.dwell_single)
    with open(path, "w") as fh:
        for seed in range(20):
            fh.write(f"# coarse seed {seed}\n")
            fh.write(freqbin.fit_envelope(simulate(coarse, seed, *fig2)).report())
            if seed == 9:
                fh.write("# other grid\n")
                fh.write(freqbin.fit_envelope(simulate(other, seed, *fig2)).report())


def write_fringe(path):
    # The scenarios' fits (fig4_90's waveplates realize phi = pi/2 at the stock
    # phi_instr = 0), pair 5 on a +/-2 ps scan, and acceptance 06's scan of pair 2.
    fine = freqbin.ScanConfig(-2e-12, 2e-12, 0.1e-12, 60.0)
    d2 = float(freqbin.pair_for_index(CFG.resonator, 2).detuning)
    cases = [(f"fig3 {m}", case([m]), CFG.delay_scan("pair"), True) for m in (5, 10, 15)]
    cases += [("detuning 5", case([5]), fine, True),
              ("fig2 fine_zero", case([2]), CFG.delay_scan("fine_zero"), False),
              ("fig4_90 single", case([2], math.pi / 2), CFG.delay_scan("pair"), False),
              ("fig3 2-5", case(range(2, 6)), CFG.delay_scan("multi"), False),
              ("fig3 2-15", case(range(2, 16)), CFG.delay_scan("multi"), False),
              ("acceptance 06", (freqbin.FringeModel(((d2, 0.7862, 0.0),), 0.0, 0.0, ENVELOPE),
                                 13.33, 0.0), fine, False)]
    with open(path, "w") as fh:
        for seed in range(10):
            for label, model_rates, scan, fit_detuning in cases:
                fh.write(f"# {label} seed {seed}\n")
                fh.write(freqbin.fit_fringe(simulate(scan, seed, *model_rates),
                                            [d for d, _, _ in model_rates[0].pairs],
                                            fit_detuning=fit_detuning).report())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = sys.argv[1]
    print("freqbin from", freqbin.__file__)
    for sub in ("csv", "dense"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    write_config(os.path.join(out, "config.txt"))
    write_csv(os.path.join(out, "csv"))
    write_dense(os.path.join(out, "dense"))
    write_envelope(os.path.join(out, "envelope.txt"))
    write_fringe(os.path.join(out, "fringe.txt"))
