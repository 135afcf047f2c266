"""Smoke runs of the experiment scripts at a tiny size, and a check of the parity tool."""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scalegraph import models

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


def _parity(old_src, new_src, mode):
    return subprocess.run([sys.executable, str(SCRIPTS / "parity.py"), str(old_src),
                           str(new_src), "--mode", mode, "--quick"],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("mode", ["bits", "tolerance"])
def test_parity_tool_sees_a_mutated_coefficient(tmp_path, mode):
    src = SCRIPTS.parent / "src"
    same = _parity(src, src, mode)
    assert same.returncode == 0, same.stdout + same.stderr
    mutant = tmp_path / "src"
    shutil.copytree(src / "scalegraph", mutant / "scalegraph",
                    ignore=shutil.ignore_patterns("__pycache__"))
    models_py = mutant / "scalegraph" / "models.py"
    text = models_py.read_text()
    # scale the N-side coefficient of the direction law by 1.01
    line = inspect.getsource(models.direction_coefficients).rstrip().splitlines()[-1]
    assert line.lstrip().startswith("return ") and text.count(line) == 1
    models_py.write_text(text.replace(line, line + " * 1.01"))
    moved = _parity(src, mutant, mode)
    assert moved.returncode == 1, moved.stdout + moved.stderr
    assert ("mismatch families/" if mode == "bits" else "FAIL") in moved.stdout
