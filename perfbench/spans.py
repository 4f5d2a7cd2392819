"""In-memory wall-clock spans recorded around calls into ``repro``'s layers.

A span is (name, start, end, parent, op): ``parent`` indexes the span that
was open when this one started, ``op`` is the question or request it served.
Nothing is written anywhere until the run ends.  The benchmark is single
threaded, so one stack is enough to know the parent.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Optional

UNATTRIBUTED = "(unattributed)"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if not op and parent is not None:
            op = self.spans[parent].op
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), math.nan, parent, op))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span under whatever span is open now."""
        parent = self._open[-1] if self._open else None
        op = self.spans[parent].op if parent is not None else ""
        self.spans.append(Span(name, start, end, parent, op))

    def as_records(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": index,
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "op": span.op,
            }
            for index, span in enumerate(self.spans)
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def summarize(spans: list[Span]) -> list[dict]:
    """Per-name rows (count, total, self), slowest self time first.

    Root spans are the benchmark's own driver loops, not a layer: their self
    time is what no layer span covers, and it closes the table as one
    ``(unattributed)`` row, so the self column sums to the roots' wall time.
    """
    own = self_times(spans)
    rows: dict[str, dict] = {}
    unattributed = 0.0
    for span, self_s in zip(spans, own):
        if span.parent is None:
            unattributed += self_s
            continue
        row = rows.setdefault(
            span.name, {"name": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += self_s
    table = sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))
    roots = sum(1 for span in spans if span.parent is None)
    table.append(
        {
            "name": UNATTRIBUTED,
            "count": roots,
            "total_s": sum(s.duration for s in spans if s.parent is None),
            "self_s": unattributed,
        }
    )
    return table


def total(spans: list[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def self_total(spans: list[Span], name: str) -> float:
    return sum(
        self_s for span, self_s in zip(spans, self_times(spans)) if span.name == name
    )


def durations(spans: list[Span], name: str) -> list[float]:
    return [span.duration for span in spans if span.name == name]
