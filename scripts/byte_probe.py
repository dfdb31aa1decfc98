"""Write the files that pin freqbin's output bytes under OUT, for `diff -r`.

    PYTHONPATH=src python scripts/byte_probe.py OUT

freqbin comes from PYTHONPATH and only its public API is used, so with
PYTHONPATH at another checkout's src/ this writes that checkout's files:
csv/ (`write_rows` bytes), dense/ (the dense_scan benchmark's scans, read
back), envelope.txt and fringe.txt (fit reports of several seeds and designs,
interleaved, so state one fit left for the next would show).
"""

import math
import os
import sys

import numpy as np

import freqbin
from freqbin.config import load_config
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


def write_csv(out):
    taus_ps = (-10e-9 + 1e-13 * np.arange(200_001)) * 1e12
    counts = np.random.default_rng(0).poisson(4100.0, taus_ps.size)
    probability = 0.5 - 0.45 * np.cos(0.37 * taus_ps) * np.exp(-(taus_ps / 4e3) ** 2)
    for name, values in (("counts.csv", counts), ("probability.csv", probability)):
        with open(os.path.join(out, name), "w") as fh:
            # All rows, then single blocks either side of the kernel's 1,024-row threshold.
            for rows in (taus_ps.size, 1023, 1024, 1201):
                write_rows(fh, taus_ps[-rows:], values[-rows:])


def write_dense(out):
    dense, tau0 = case(range(2, 16)), CFG.snapped_tau0
    for i, dwell in enumerate((0.2, 30.0)):
        scan = freqbin.ScanConfig(tau0 - 10e-9, tau0 + 10e-9, CFG.fine_step, dwell)
        path = os.path.join(out, f"grid{i}.csv")
        simulate(scan, i, *dense).to_csv(path)
        back = freqbin.load_dataset(path)
        np.save(os.path.join(out, f"grid{i}_taus.npy"), back.taus)
        np.save(os.path.join(out, f"grid{i}_counts.npy"), back.counts)


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
    write_csv(os.path.join(out, "csv"))
    write_dense(os.path.join(out, "dense"))
    write_envelope(os.path.join(out, "envelope.txt"))
    write_fringe(os.path.join(out, "fringe.txt"))
