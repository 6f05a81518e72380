"""The study scripts under scripts/ run end to end on small grids."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("bound_optimization_demo.py", ["--N", "64", "--budget", "100"]),
    ("aps_gap_study.py", ["--N", "64,128", "--kmax", "2.5"]),
])
def test_study_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)] + args,
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
