"""Smoke runs of the scripts under scripts/ on tiny grids."""

import csv
import os
import subprocess
import sys

import pytest

from wetting_lab.certify import SCALE_CONSTANT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(tmp_path, script, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script,argv", [
    ("calibrate_midpoint_constant.py",
     ["--sigma2", "0.5", "--j", "0", "--mults", "1", "--c-max", "8"]),
    ("run_threshold_sweep.py",
     ["--sigma2", "0.5", "--tol", "0.5", "--L-max", "64"]),
    ("run_phase_scan.py", ["--sigma2", "0.5", "--rho-grid", "0.5",
                           "--L-max", "64"]),
])
def test_script_runs(tmp_path, script, argv):
    proc = _run(tmp_path, script, *argv)
    assert proc.returncode == 0, proc.stderr


def test_calibration_pins_the_shipped_constant(tmp_path):
    # sigma2 = 0.05, j = 8 is the cell that binds C on the default grid:
    # C = 7.5 fails there first, at L = 12,150 with p = 0.7543
    proc = _run(tmp_path, "calibrate_midpoint_constant.py",
                "--sigma2", "0.05", "--j", "8", "--c-max", "8")
    assert proc.returncode == 0, proc.stderr
    assert "C=  7.5: fails at (0.05, 8, 12150," in proc.stdout
    assert f"smallest working C on this grid: {SCALE_CONSTANT}\n" in \
        proc.stdout


def test_phase_scan_csv_keeps_its_columns_when_an_error_has_commas(tmp_path):
    # sigma2 = 0.6 is refused by the binomial kernel, and the error message
    # ends up in the last column
    proc = _run(tmp_path, "run_phase_scan.py", "--sigma2", "0.6",
                "--rho-grid", "0.5", "--L-max", "64", "--out", "scan.csv")
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "scan.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 11 and rows
    assert all(len(row) == 11 for row in rows)
    assert "," in rows[0][-1]
