"""The benchmark's tracing hooks still find every name they patch, and run.

`perfbench/worker.py --trace 1` wraps functions of spinspec at the names
their callers look up.  A rename or removal in spinspec breaks only that
traced run, and so does a wrapper that fails only when it is called (the
assembly wrapper reads `ModeOperator.matrix`, the writer's reads the text
argument).  So these tests install the hooks in process, run every command
under them, and take them out again.
"""

import importlib.util
from pathlib import Path

import pytest

from spinspec import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    # worker.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_resolve_and_restore(worker):
    tracer = worker.Tracer("t")
    try:
        # raises AttributeError or KeyError for a name that is gone
        worker.instrument(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.restore()
    assert {attr for _, attr, _ in patched} >= {
        "aggregate", "eigensystem", "solve_banded", "optimize_modifiers"}
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_every_command_runs_under_the_trace_hooks(worker, tmp_path, capsys):
    scenario = ["--geometry", "disk", "--N", "16,32,64", "--kmax", "1.5"]
    tracer = worker.Tracer("t")
    worker.instrument(tracer)
    try:
        codes = {command: cli.run([command, *scenario, *extra,
                                   "--out", str(tmp_path / command)])
                 for command, extra in (
                     ("spectrum", []), ("verify", []),
                     ("bounds", ["--optimize-bounds", "--budget", "40"]),
                     ("convergence", []))}
    finally:
        tracer.restore()
    assert codes == dict.fromkeys(codes, 0), capsys.readouterr().err
    layers = worker.layer_metrics(tracer)
    assert layers["dirac_core.assemble_calls"] > 0
    assert layers["cli.bytes_written"] > 0
