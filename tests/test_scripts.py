"""scripts/scenario_digest.py runs end to end and reproduces itself."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_scenario_digest_is_reproducible(tmp_path):
    """Two runs of scripts/scenario_digest.py on one scenario print the same
    lines, one per command: re-running reproduces every output byte for
    byte (docs/formats.md)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(ROOT, "scripts", "scenario_digest.py"),
            os.path.join(ROOT, "scenarios", "disk_oracle.json")]
    runs = [subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["disk_oracle", cmd] for cmd in ("spectrum", "verify", "bounds",
                                         "convergence")]
    assert runs[1].stdout == runs[0].stdout
    assert not os.listdir(tmp_path)
