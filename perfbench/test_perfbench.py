"""Tests of the benchmark's own logic (no spinspec solve is run).

    python3 -m pytest perfbench
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import workloads
from tracing import (Span, Tracer, children_of, loglog_slope, outermost,
                     self_time, union_length)


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, "test")


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 4.0, 1), _span(3, 2.0, 5.0, 1),   # overlap: 1..5
            _span(4, 7.0, 8.0, 1)]
    # union covers 4 + 1 = 5; the plain sum (7) would leave 3
    assert self_time(parent, kids) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent_interval():
    parent = _span(1, 0.0, 10.0)
    kids = [_span(2, -2.0, 1.0, 1), _span(3, 9.0, 12.0, 1),
            _span(4, 20.0, 30.0, 1)]
    assert self_time(parent, kids) == pytest.approx(8.0)


def test_union_length_of_nested_and_touching_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 10), (2, 3), (10, 11)]) == pytest.approx(11.0)


def test_outermost_skips_spans_nested_in_the_same_group():
    spans = [_span(1, 0, 10, None, "a"), _span(2, 1, 2, 1, "b"),
             _span(3, 1.2, 1.5, 2, "a"), _span(4, 11, 12, None, "a")]
    assert [s.id for s in outermost(spans, {"a"})] == [1, 4]
    assert [s.id for s in outermost(spans, {"a", "b"})] == [1, 4]


def test_loglog_slope_recovers_power_law_and_needs_two_sizes():
    assert loglog_slope([(n, 3.0 * n ** 2) for n in (128, 256, 1024)]) \
        == pytest.approx(2.0)
    assert loglog_slope([(256, 1.0), (256, 2.0)]) == 0.0


def test_pool_spans_carry_their_explicit_parent():
    tr = Tracer("test")
    with tr.span("agg") as _:
        parent = tr.current
        work = tr.wrap(lambda x: x * x, "mode", parent=parent)
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(work, range(8))) == [x * x for x in range(8)]
    agg = next(s for s in tr.spans if s.name == "agg")
    modes = [s for s in tr.spans if s.name == "mode"]
    assert len(modes) == 8 and all(s.parent == agg.id for s in modes)
    assert children_of(tr.spans)[agg.id] == modes
    assert len({s.id for s in tr.spans}) == 9


def test_patch_and_restore_keep_the_original_attribute():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    tr = Tracer("test")
    tr.patch(Owner, "f", staticmethod(tr.wrap(Owner.f, "f")))
    assert Owner.f(1) == 2 and len(tr.spans) == 1
    tr.restore()
    assert Owner.f(1) == 2 and len(tr.spans) == 1


def test_counter_is_exact_under_threads():
    tr = Tracer("test")

    def bump():
        for _ in range(2000):
            tr.count("n")

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tr.counts["n"] == 8000


def _files(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_the_same_files(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    workloads.write_inputs(workload, 7, str(a))
    workloads.write_inputs(workload, 7, str(b))
    fa, fb = _files(a), _files(b)
    if workload == "low_modes":  # the profile path names the directory
        fa = {k: v.replace(str(a).encode(), b"") for k, v in fa.items()}
        fb = {k: v.replace(str(b).encode(), b"") for k, v in fb.items()}
    assert fa == fb and fa


def test_seed_draws_stay_in_range_and_differ():
    draws = [workloads.Draw.from_seed(s) for s in range(200)]
    assert all(math.pi / 3 <= d.cap_angle < math.pi / 2 for d in draws)
    assert len({d.cap_angle for d in draws}) == len(draws)


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_profile_is_smooth_positive_and_ascending(seed):
    lines = workloads.Draw.from_seed(seed).profile_csv().splitlines()
    assert lines[0] == "r,f"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    r = [x for x, _ in rows]
    assert all(b > a for a, b in zip(r, r[1:]))
    assert all(f > 0 for _, f in rows)
