"""In-memory span tracer.

A span records (id, name, start, end, parent, calls). Spans nest
through a stack, are kept in memory and written out once at the end.
A span's self time is its duration minus the part of its interval that
its child spans cover. ``calls`` lets one span time a loop of identical
calls so per-call figures carry no per-call tracing cost.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    calls: int = 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, time.perf_counter(), 0.0, parent, calls)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered = 0.0
            hi = s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo = max(c.start, hi)
                top = min(c.end, s.end)
                if top > lo:
                    covered += top - lo
                hi = max(hi, top)
            out.append((s.end - s.start) - covered)
        return out

    def per_call(self, name: str) -> float:
        """Total self time of spans named ``name`` divided by their
        total call count, in seconds (0.0 when none were recorded)."""
        st = self.self_times()
        total = calls = 0
        for s in self.spans:
            if s.name == name:
                total += st[s.id]
                calls += s.calls
        return total / calls if calls else 0.0

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        st = self.self_times()
        with open(path, "w") as f:
            json.dump(
                [{**asdict(s), "self": st[s.id]} for s in self.spans], f
            )


class NullTracer(Tracer):
    """Tracing off: spans cost one context-manager entry and record
    nothing, so untraced runs measure the program alone."""

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        yield None
