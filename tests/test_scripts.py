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


def test_optimizer_digest_hashes_every_trace_point(monkeypatch, capsys):
    """`--optimizer` digests the optimizer runs of `bounds`, one line per
    variant for each scenario with optimize_bounds (annulus_bounds) and for
    each bounds job of the benchmark, over every trace point in order (the
    optimizer itself is stubbed)."""
    import hashlib
    import struct

    import numpy as np
    from spinspec import bounds

    script = _digest_script()
    runs = []

    def stub(surface, variant, budget):
        runs.append((surface.name, variant, budget))
        trace = [bounds.TracePoint(np.array([0.5, -1.0]), 2.0, -0.25, False),
                 bounds.TracePoint(np.array([0.0, 1e-3]), -1.5, 1.0, True)]
        return bounds.OptimizerResult(None, 0.0, 0.0, True, False, 2, 0.0,
                                      trace)

    monkeypatch.setattr(bounds, "optimize_modifiers", stub)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds to it
    h = hashlib.sha256()
    for params, rest in ((b"\x00\x00\x00\x00\x00\x00\xe0?"
                          b"\x00\x00\x00\x00\x00\x00\xf0\xbf",
                          (2.0, -0.25, False)),
                         (np.array([0.0, 1e-3]).astype("<f8").tobytes(),
                          (-1.5, 1.0, True))):
        h.update(params + struct.pack("<dd?", *rest))
    trace = f"n_eval=2 trace={h.hexdigest()}"

    assert script.main(["--optimizer"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"annulus_bounds optimizer:{variant} {trace}"
        for variant in ("interior", "conformal")]
    assert runs == [("annulus:0.5,1.0", "interior", 1200),
                    ("annulus:0.5,1.0", "conformal", 1200)]

    runs.clear()
    assert script.main(["--optimizer", "--perfbench", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{job} optimizer:{variant} {trace}"
        for job in ("annulus_bounds", "cap_bounds")
        for variant in ("interior", "conformal")]
    assert [budget for _, _, budget in runs] == [1200] * 4


def test_lapack_counts_each_routine_per_command(monkeypatch, capsys):
    """`--lapack` prints one line per scenario and command with the exit
    code and the calls of each LAPACK routine made through `_lapack._call`
    while that command ran, by name; the cached workspace queries are
    cleared before each command, and `_call` is put back (the commands and
    the routines are stubbed)."""
    from spinspec import _lapack

    script = _digest_script()
    made, cleared = [], []
    calls = {"spectrum": ["dsterf", "zgehrd", "dsterf"], "verify": ["dstebz"],
             "bounds": [], "convergence": ["dlaebz"]}

    def routine(name, *args):
        made.append(name)
        return 0

    def stub(argv):
        for name in calls[argv[0]]:
            _lapack._call(name)
        return 2 if argv[0] == "bounds" else 0

    monkeypatch.setattr(_lapack, "_call", routine)
    monkeypatch.setattr(_lapack._lwork, "cache_clear",
                        lambda: cleared.append(True))
    monkeypatch.setattr(script, "run", stub)
    scenario = os.path.join(ROOT, "scenarios", "disk_oracle.json")
    assert script.main(["--lapack", scenario]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "disk_oracle spectrum exit=0 dsterf=2 zgehrd=1",
        "disk_oracle verify exit=0 dstebz=1",
        "disk_oracle bounds exit=2",
        "disk_oracle convergence exit=0 dlaebz=1"]
    assert made == ["dsterf", "zgehrd", "dsterf", "dstebz", "dlaebz"]
    assert len(cleared) == 4 and _lapack._call is routine


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path,
                                                            capsys):
    """scripts/code_lines.py counts each module's lines of code, by file
    name, and their total: docstrings of the module, a class and a function
    (one or several lines), comment lines and blank lines are left out; a
    multi-line statement, a multi-line string that is no docstring and a
    line with a trailing comment count (a stub package of three modules).
    With --functions it counts each function's and method's lines by the
    same rule, by qualified name in source order, its decorators and the
    functions and classes nested in it included."""
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "scripts", "code_lines.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "b.py").write_text(
        '"""Module\n\ndocstring."""\n\n'
        "# a comment\n"
        "import os  # trailing\n\n\n"
        "class A:\n"
        '    """One line."""\n'
        "    x = (1,\n"
        "         2)\n\n"
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        "        return '''not\n"
        "a docstring'''\n")
    (tmp_path / "a.py").write_text("X = 1\n\n# only a comment\n")
    (tmp_path / "c.py").write_text(
        "import functools\n\n\n"
        "@functools.cache\n"
        "def g(x):\n"
        '    """Doc."""\n\n'
        "    def inner(y):\n"
        "        return y  # trailing\n"
        "    return inner(x)\n\n\n"
        "async def h():\n"
        "    class B:\n"
        "        def m(self):\n"
        "            pass\n"
        "    return B\n")
    (tmp_path / "notes.txt").write_text("X = 2\n")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py 1", "b.py 7",
                                                    "c.py 11", "total 19"]
    assert script.main(["--functions", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "b.py:A.f 3", "c.py:g 5", "c.py:g.<locals>.inner 2", "c.py:h 5",
        "c.py:h.<locals>.B.m 2"]
