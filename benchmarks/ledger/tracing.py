"""Spans for the traced run: kept in memory, written out at exit.

The spans are recorded by the benchmark's own code around its calls into
each layer's public functions; nothing inside the program is instrumented.
A span's *self time* is its duration minus the part its children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at the top
    op_id: Optional[str]  # spans of one op share it; None for side probes


class Tracer:
    """An append-only span list plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._op_id: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._op_id)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """One op: a root span named ``op`` whose descendants share ``op_id``."""
        self._op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op_id = None

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_seconds(self) -> Dict[str, Dict[str, float]]:
        """Per op, each span name's self time (children subtracted)."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        totals: Dict[str, Dict[str, float]] = {}
        for span, seconds in zip(self.spans, own):
            if span.op_id is not None:
                per_op = totals.setdefault(span.op_id, {})
                per_op[span.name] = per_op.get(span.name, 0.0) + seconds
        return totals

    def dump(self, path: Path, **header) -> None:
        payload = dict(header)
        payload["self_seconds"] = self.self_seconds()
        payload["spans"] = [dataclasses.asdict(span) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


class NullTracer:
    """The same surface with nothing recorded."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    @contextlib.contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        yield


def span_cost_s() -> float:
    """Seconds one recorded span adds to an op, over one not recorded.

    Each side is the fastest of five bursts of 2 000 empty spans.
    """

    def fastest(tracer_class) -> float:
        best = float("inf")
        for _ in range(5):
            tracer = tracer_class()
            start = time.perf_counter()
            for _ in range(2000):
                with tracer.span("cost"):
                    pass
            best = min(best, time.perf_counter() - start)
        return best / 2000

    return fastest(Tracer) - fastest(NullTracer)
