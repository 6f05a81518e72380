"""In-memory spans recorded around calls into the program, from outside it.

A span records its name, start, end, parent span and run id.  Wrappers are
installed at the name a caller looks up (a module attribute or a class
attribute) and removed again by `Tracer.restore`.  Spans stay in memory
until the run writes them out.

Context does not reach `ThreadPoolExecutor` workers on its own, so a span
opened on a pool thread must be given its parent explicitly (`parent=`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._current: ContextVar[int | None] = ContextVar("span", default=None)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record a span around the body; yields its attrs dict to fill in.

        The parent is the current span of this thread unless given.
        """
        sid = next(self._ids)
        if parent is None:
            parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       self.run_id, attrs))

    @property
    def current(self) -> int | None:
        return self._current.get()

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def wrap(self, fn, name: str, on_return=None, parent: int | None = None):
        """`fn` inside a span; `on_return(attrs, args, result)` adds attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, parent=parent) as attrs:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(attrs, args, result)
                return result
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace `owner.attr` until `restore`; keeps the original."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the union of the child intervals, clipped to the span.

    Children on pool threads overlap, so their sum would over-count.
    """
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in children]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in `names` that have no ancestor also named in `names`."""
    names = set(names)
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in names:
                return True
            p = by_id.get(p.parent)
        return False

    return [s for s in spans if s.name in names and not nested(s)]


def total_time(spans: list[Span], *names: str) -> float:
    return sum((s.duration for s in outermost(spans, names)), 0.0)


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 with < 2 distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def per_size_slope(spans: list[Span], name: str) -> float:
    """Scaling exponent of mean span time per grid size `attrs['N']`."""
    by_n: dict[int, list[float]] = {}
    for s in spans:
        if s.name == name:
            by_n.setdefault(s.attrs["N"], []).append(s.duration)
    return loglog_slope([(n, sum(v) / len(v)) for n, v in by_n.items()])
