"""The benchmark's tracing hooks still find every name they patch.

`perfbench/worker.py --trace 1` wraps functions of spinspec at the names
their callers look up.  A rename or removal in spinspec breaks only that
traced run, so this test installs the hooks in process (without running a
workload) and takes them out again.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_resolve_and_restore(monkeypatch):
    # worker.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)

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
