"""Exporters for recorded spans and metrics.

Four output shapes, all zero-dependency:

- :func:`write_spans_jsonl` — one JSON object per span, streamable.
- :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (complete ``"X"`` events), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.
- :func:`stage_summary` — per-stage self-time and token attribution
  records.  Self-time decomposition is exhaustive: every recorded
  second lands in exactly one stage, and whatever escapes (overlapping
  parallel children) shows up as an explicit ``(unaccounted)`` row
  rather than silently disappearing.  The harness renders them as a
  console table.
- Prometheus text comes from
  :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.obs.trace import Span


def spans_to_records(spans: Iterable[Span]) -> list[dict]:
    """Flatten spans (parent links intact) into JSON-ready dicts."""
    records = []
    for span in spans:
        records.append(
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "duration": span.duration,
                "lane": span.lane,
                "attributes": dict(span.attributes),
            }
        )
    return records


def write_spans_jsonl(spans: Iterable[Span], path: Union[str, Path]) -> Path:
    """Write one span per line; returns the path."""
    target = Path(path)
    lines = [json.dumps(record, default=str) for record in spans_to_records(spans)]
    target.write_text("\n".join(lines) + ("\n" if lines else ""))
    return target


# -- Chrome trace_event ------------------------------------------------------------


def chrome_trace(spans: Iterable[Span], *, process_name: str = "repro") -> dict:
    """Spans as a Chrome ``trace_event`` payload (complete events).

    Timestamps are microseconds (the format's unit); each tracer lane
    becomes a ``tid`` so concurrent spans get their own tracks.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": span.lane + 1,
                "args": {str(k): _jsonable(v) for k, v in span.attributes.items()},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[Span], path: Union[str, Path], *, process_name: str = "repro"
) -> Path:
    target = Path(path)
    target.write_text(
        json.dumps(chrome_trace(spans, process_name=process_name), indent=2) + "\n"
    )
    return target


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- per-stage summary -------------------------------------------------------------

#: Span attributes summed into the stage table when present.
_TOKEN_ATTRS = ("input_tokens", "output_tokens")


def stage_summary(roots: Sequence[Span]) -> list[dict]:
    """Aggregate a span forest into per-stage (per span name) records.

    ``self_s`` is the time spent in spans of that name *excluding* their
    children, so the column sums to the total recorded time; ``share``
    is that sum as a fraction of the forest's root time.  Token counts
    come from ``input_tokens``/``output_tokens`` span attributes.
    """
    total = sum(root.duration for root in roots)
    stages: dict[str, dict] = {}
    attributed = 0.0
    for root in roots:
        for span in root.walk():
            record = stages.setdefault(
                span.name,
                {
                    "stage": span.name,
                    "spans": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "input_tokens": 0,
                    "output_tokens": 0,
                },
            )
            record["spans"] += 1
            record["total_s"] += span.duration
            own = span.self_time()
            record["self_s"] += own
            attributed += own
            for attr in _TOKEN_ATTRS:
                value = span.attributes.get(attr)
                if isinstance(value, (int, float)):
                    record[attr] += int(value)
    records = sorted(
        stages.values(), key=lambda r: (-r["self_s"], r["stage"])
    )
    unaccounted = max(0.0, total - attributed)
    if total and unaccounted / total > 1e-9:
        records.append(
            {
                "stage": "(unaccounted)",
                "spans": 0,
                "total_s": unaccounted,
                "self_s": unaccounted,
                "input_tokens": 0,
                "output_tokens": 0,
            }
        )
    for record in records:
        record["share"] = (record["self_s"] / total) if total else 0.0
        record["total_s"] = round(record["total_s"], 6)
        record["self_s"] = round(record["self_s"], 6)
        record["share"] = round(record["share"], 6)
    return records
