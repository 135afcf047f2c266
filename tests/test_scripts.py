"""Smoke runs of the experiment scripts at a tiny size."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("run_grid_search.py", ["--n", "40", "--splits", "2", "--max-epochs", "5"], "rank\t"),
    ("run_scale_benchmark.py", ["--n", "40", "--seeds", "1", "--max-epochs", "5"],
     "column\tmean_acc"),
])
def test_script_runs(script, args, header):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout
