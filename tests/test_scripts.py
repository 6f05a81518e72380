"""scripts/scenario_digest.py runs end to end and reproduces itself."""

import glob
import importlib.util
import json
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


def _digest_script():
    """scripts/scenario_digest.py loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "scenario_digest", os.path.join(ROOT, "scripts", "scenario_digest.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_perfbench_digest_covers_every_job_and_cleans_up(monkeypatch, capsys):
    """`--perfbench SEED` digests the 9 job configs of the three benchmark
    workloads at that seed, 36 lines, the profile CSV beside them, and
    removes the directory it wrote them to (the digest itself is stubbed:
    the real jobs run full-size)."""
    script = _digest_script()
    seen = []

    def stub(scenario, command):
        with open(scenario) as fh:
            geometry = json.load(fh)["geometry"]
        if geometry.startswith("profile:"):
            assert os.path.isfile(geometry[len("profile:"):])
        seen.append(scenario)
        return f"{os.path.basename(scenario)} {command}"

    monkeypatch.setattr(script, "digest", stub)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds to it
    assert script.main(["--perfbench", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 36 and len(set(lines)) == 36
    assert len(set(seen)) == 9
    assert not any(os.path.exists(path) for path in seen)


def test_bc_digest_replaces_the_conditions_of_every_scenario(monkeypatch,
                                                            capsys):
    """`--bc LIST` digests, for each scenario, a copy of its config under the
    same file name with `bc` replaced by the list and every other field
    kept, and removes the copies (the digest itself is stubbed)."""
    script = _digest_script()
    seen = {}

    def stub(scenario, command):
        with open(scenario) as fh:
            seen[scenario] = json.load(fh)
        return f"{os.path.basename(scenario)} {command}"

    monkeypatch.setattr(script, "digest", stub)
    assert script.main(["--bc", "local-, aps-,local+"]) == 0
    originals = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json")))
    assert capsys.readouterr().out.splitlines() == [
        f"{os.path.basename(path)} {command}" for path in originals
        for command in script.COMMANDS]
    assert len(seen) == len(originals) == 6
    for (copy, config), original in zip(seen.items(), originals):
        with open(original) as fh:
            assert config == dict(json.load(fh), bc=["local-", "aps-", "local+"])
        assert not os.path.exists(copy)
