"""scripts/byte_probe.py, the base-commit byte check, stays runnable."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_FILES = {
    "csv/counts.csv", "csv/probability.csv",
    "dense/grid0.csv", "dense/grid1.csv",
    "dense/grid0_taus.npy", "dense/grid0_counts.npy",
    "dense/grid1_taus.npy", "dense/grid1_counts.npy",
    "dense/grid0_column_taus.npy", "dense/grid0_column_counts.npy",
    "dense/grid1_column_taus.npy", "dense/grid1_column_counts.npy",
    "dense/grid1_crlf_taus.npy", "dense/grid1_crlf_counts.npy",
    "dense/grid1_pause_taus.npy", "dense/grid1_pause_counts.npy",
    "dense/zero.csv", "dense/zero_taus.npy", "dense/zero_counts.npy",
    "dense/zero_column_taus.npy", "dense/zero_column_counts.npy",
    "config.txt", "envelope.txt", "fringe.txt",
}


def test_byte_probe_writes_its_files_from_this_src(tmp_path):
    out = tmp_path / "probe"
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "byte_probe.py"), str(out)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert f"freqbin from {ROOT / 'src' / 'freqbin' / '__init__.py'}" in done.stdout
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == PROBE_FILES
    # Every report opens with its iteration count.
    reports = {name: (out / name).read_text().count("\niterations = ") for name in
               ("envelope.txt", "fringe.txt")}
    assert reports == {"envelope.txt": 21, "fringe.txt": 90}
