"""In-memory span recorder for the traced run.

A span has a name, a start, an end and the span that caused it (its
parent). Spans stay in memory and are written once, when the benchmark
ends. Children of one span run one after another, so a span's self time is
its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    """Context manager that records nothing; used for the untraced replay."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "id", "name", "parent", "start", "end", "attrs")

    def __init__(self, tracer, sid, name, parent, attrs):
        self.tracer = tracer
        self.id = sid
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = None

    def __enter__(self):
        self.tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        return False


class Tracer:
    """Records nested spans and named counters.

    ``Tracer(enabled=False)`` keeps the same interface but records nothing,
    so one replay function serves both the traced and the untraced run.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        s = _Span(self, len(self.spans), name, parent, attrs)
        self.spans.append(s)
        return s

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += int(n)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def total_by_name(self) -> dict[str, float]:
        """Summed duration of all spans of each name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def dump(self, path) -> None:
        selfs = self.self_times()
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": selfs[s.id],
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
