"""Smoke runs of the study scripts at small settings: each one runs to its
end on the current API, so an interface change that breaks a script fails
here rather than when the script is next run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, last_study",
    [
        ("convergence_study.py", ["--resolutions", "8", "16"], "bracket identity for the volume form"),
        ("involutivity_scan.py", ["--epsilons", "0.05", "--samples", "4"], "0.050"),
        ("instanton_sweep.py", ["--steps", "2", "--samples", "4"], "1.00"),
    ],
)
def test_study_script_runs_to_the_end(tmp_path, script, args, last_study):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert last_study in run.stdout
