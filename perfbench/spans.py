"""Timing spans around the module attributes the program calls through.

The program itself holds no trace points.  A Tracer replaces attributes
such as ``kgqv._kernels.march_points`` with wrappers that record a span
(name, start, end, parent span, thread) and the counts that can be read
off the call's arguments, then puts the originals back.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Trace module.attr as `name`; counts(*args, **kw) -> dict of ints."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to whatever the
                # driving thread has open: the call that handed out the work
                main = self._main_stack
                parent = main[-1] if main else None
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                c = counts(*args, **kwargs) if counts else {}
                self.spans[sid] = Span(sid, name, t0, t1, parent, threading.get_ident(), c)

        self._saved.append((module, attr, inner))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, inner = self._saved.pop()
            setattr(module, attr, inner)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanView:
    """Aggregates over the spans recorded for one unit of work."""

    def __init__(self, spans):
        self.spans = spans
        self._children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self._children.setdefault(s.parent, []).append(s)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name) -> float:
        return sum(s.end - s.start for s in self.named(name))

    def calls(self, name) -> int:
        return len(self.named(name))

    def count(self, name, key) -> int:
        return sum(s.counts[key] for s in self.named(name))

    def self_time(self, name) -> float:
        """Duration of each `name` span minus what its children cover."""
        total = 0.0
        for s in self.named(name):
            kids = [(c.start, c.end) for c in self._children.get(s.id, [])]
            total += (s.end - s.start) - _union_length(kids)
        return total

    def outer_total(self, names) -> float:
        """Time under spans named in `names`, not counting one inside another."""
        spans = [s for s in self.spans if s.name in names]
        ids = {s.id for s in spans}
        return sum(s.end - s.start for s in spans if s.parent not in ids)
