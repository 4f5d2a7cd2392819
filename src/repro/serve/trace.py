"""Request-scoped serving traces, materialized after the fact.

The serving layer never opens live tracer spans on the hot path —
that would put telemetry state inside the event loop and risk the
byte-identity guarantee.  Instead the server records one lightweight
:class:`TraceRecord` of plain numbers per terminal outcome (plus one
:class:`WaveRecord` per batch flush), and span *trees* are built on
demand from those numbers by :func:`materialize_request` — only for the
traces the tail sampler kept, or the one request ``explain-request``
is asked about.

The reconstruction is exact: every child level tiles its parent's
interval, so the per-stage self-time decomposition attributes 100% of
a request's offer-to-finish virtual time with zero unaccounted.  Span
shapes by outcome:

- admission shed — zero-width root at arrival with a ``serve:admission``
  marker carrying the shed reason;
- reaped in queue — ``serve:queue`` spans the whole life up to the
  deadline, with zero-width ``serve:queue.aging`` events at every
  aging promotion;
- unbatched dispatch — ``serve:service`` splits into sequential
  ``serve:overhead`` / ``serve:llm`` / ``llm:backoff`` segments (each
  clamped at the deadline, mirroring the server's own clamp);
- batched dispatch — ``serve:batch.wait`` holds zero-width
  ``serve:batch.dispatch`` events *linked* to the shared
  ``serve:batch.wave`` spans (one wave span is linked from every member
  request), then ``serve:settle`` carries the replay tail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.obs.trace import Span, closed_span
from repro.serve.request import DEGRADED, REJECTED, RequestOutcome

#: admission-shed reasons (no dispatch ever happened)
_SHED_REASONS = ("queue_full", "tenant_quota", "token_budget")


@dataclass
class TraceRecord:
    """Everything needed to rebuild one request's span tree.

    ``start`` is the dispatch instant (None when the request never
    left the queue); ``land`` is the batched-path landing instant
    (None on the unbatched path).  Component seconds decompose the
    service/settle tail exactly as the server computed it.
    """

    request_id: int
    trace_id: str
    tenant: str
    database: str
    pipeline: str
    priority: int
    arrival: float
    deadline_at: float
    status: str
    reason: Optional[str]
    finish: float
    queue_wait: float = 0.0
    start: Optional[float] = None
    land: Optional[float] = None
    overhead_seconds: float = 0.0
    llm_seconds: float = 0.0
    backoff_seconds: float = 0.0
    retries: int = 0
    llm_calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    shared_tokens: int = 0
    degraded_keys: int = 0
    rows: Optional[int] = None
    #: instants where queue aging promoted the request by one class
    promotions: tuple[float, ...] = ()
    #: batch wave ids this request's calls rode on, in flush order
    waves: tuple[str, ...] = ()

    @classmethod
    def of(cls, outcome: RequestOutcome, **stages) -> "TraceRecord":
        """The record of one terminal outcome.

        ``stages`` are the fields the outcome does not carry: ``start``,
        ``land``, the service-time components, ``retries``,
        ``promotions`` and ``waves``.
        """
        request = outcome.request
        return cls(
            request_id=request.request_id,
            trace_id=request.trace_id,
            tenant=request.tenant,
            database=request.database,
            pipeline=request.pipeline,
            priority=request.priority,
            arrival=request.arrival,
            deadline_at=request.deadline_at,
            status=outcome.status,
            reason=outcome.reason,
            finish=outcome.finish_time,
            queue_wait=outcome.queue_wait,
            llm_calls=outcome.llm_calls,
            input_tokens=outcome.input_tokens,
            output_tokens=outcome.output_tokens,
            shared_tokens=outcome.shared_tokens,
            degraded_keys=outcome.degraded_keys,
            rows=outcome.rows,
            **stages,
        )

    @property
    def latency(self) -> float:
        return max(0.0, self.finish - self.arrival)

    def summary(self) -> dict:
        """The compact form kept in bench trace payloads."""
        record = {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "tenant": self.tenant,
            "database": self.database,
            "pipeline": self.pipeline,
            "status": self.status,
            "reason": self.reason,
            "arrival": round(self.arrival, 6),
            "finish": round(self.finish, 6),
            "latency": round(self.latency, 6),
            "queue_wait": round(self.queue_wait, 6),
            "llm_seconds": round(self.llm_seconds, 6),
            "llm_calls": self.llm_calls,
            "retries": self.retries,
        }
        if self.waves:
            record["waves"] = list(self.waves)
        if self.shared_tokens:
            record["shared_tokens"] = self.shared_tokens
        return record


@dataclass(frozen=True)
class WaveRecord:
    """One batch flush shared by several requests."""

    wave_id: str
    flush: float
    land: float
    #: trace ids of every member request, in request-id order
    members: tuple[str, ...]
    items: int
    calls: int


class ServeTraceLog:
    """Passive sink for trace records; the server writes, nobody reads
    until the run is over."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self.waves: list[WaveRecord] = []
        self._by_trace: dict[str, TraceRecord] = {}
        self._waves_by_id: dict[str, WaveRecord] = {}

    def add(self, record: TraceRecord) -> None:
        self.records.append(record)
        self._by_trace[record.trace_id] = record

    def next_wave_id(self) -> str:
        return f"w{len(self.waves) + 1}"

    def add_wave(self, wave: WaveRecord) -> None:
        self.waves.append(wave)
        self._waves_by_id[wave.wave_id] = wave

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        return self._by_trace.get(trace_id)

    def wave(self, wave_id: str) -> Optional[WaveRecord]:
        return self._waves_by_id.get(wave_id)

    def by_request_id(self, request_id: int) -> Optional[TraceRecord]:
        for record in self.records:
            if record.request_id == request_id:
                return record
        return None


def materialize_request(
    record: TraceRecord,
    waves: Optional[Mapping[str, WaveRecord]] = None,
) -> Span:
    """Rebuild one request's span tree; children tile exactly.

    Span ids are pure functions of the trace id (root ``t000042``,
    children ``t000042.1``, ``t000042.2``, ... in depth-first order),
    so traces are byte-reproducible across runs.
    """
    waves = waves or {}
    seq = itertools.count(1)

    def child(
        name: str, parent: Span, start: float, end: float, **attrs: object
    ) -> Span:
        return closed_span(
            name, f"{record.trace_id}.{next(seq)}", parent, start, end,
            attributes=attrs or None,
        )

    root_attrs: dict[str, object] = {
        "request_id": record.request_id,
        "tenant": record.tenant,
        "database": record.database,
        "pipeline": record.pipeline,
        "priority": record.priority,
        "status": record.status,
    }
    if record.reason:
        root_attrs["reason"] = record.reason
    root = closed_span(
        "serve:request", record.trace_id, None,
        record.arrival, record.finish, attributes=root_attrs,
    )
    if record.status == REJECTED and record.reason in _SHED_REASONS:
        child(
            "serve:admission", root, record.arrival, record.arrival,
            outcome="shed", reason=record.reason,
        )
        return root
    child(
        "serve:admission", root, record.arrival, record.arrival,
        outcome="admitted",
    )
    queue_end = record.start if record.start is not None else record.finish
    queue = child(
        "serve:queue", root, record.arrival, queue_end,
        wait=round(record.queue_wait, 6),
    )
    for instant in record.promotions:
        child("serve:queue.aging", queue, instant, instant, promoted_by=1)
    if record.status == REJECTED:
        # the deadline expired while queued — the queue span is the life
        queue.set("outcome", "deadline_expired")
        return root
    assert record.start is not None
    if record.land is not None:
        wait = child(
            "serve:batch.wait", root, record.start, record.land,
            waves=len(record.waves),
        )
        for wave_id in record.waves:
            wave = waves.get(wave_id)
            instant = wave.flush if wave is not None else record.start
            attrs: dict[str, object] = {"link": wave_id}
            if wave is not None:
                attrs["members"] = len(wave.members)
                attrs["calls"] = wave.calls
            child("serve:batch.dispatch", wait, instant, instant, **attrs)
        service = child("serve:settle", root, record.land, record.finish)
        base = record.land
    else:
        service = child(
            "serve:service", root, record.start, record.finish
        )
        base = record.start
    if record.status == DEGRADED and record.reason == "breaker_open":
        child(
            "serve:degrade", service, base, record.finish,
            reason="breaker_open",
        )
        return root
    # sequential segments, each clamped at the finish instant exactly
    # like the server clamps service time at the deadline
    b1 = min(base + record.overhead_seconds, record.finish)
    b2 = min(b1 + record.llm_seconds, record.finish)
    child("serve:overhead", service, base, b1)
    child(
        "serve:llm", service, b1, b2,
        calls=record.llm_calls,
        input_tokens=record.input_tokens,
        output_tokens=record.output_tokens,
    )
    child(
        "llm:backoff", service, b2, record.finish, retries=record.retries
    )
    if record.status == DEGRADED:
        child(
            "serve:degrade", service, record.finish, record.finish,
            reason=record.reason, degraded_keys=record.degraded_keys,
        )
    return root


def materialize_wave(wave: WaveRecord) -> Span:
    """The shared dispatch span every member request links to."""
    return closed_span(
        "serve:batch.wave", wave.wave_id, None, wave.flush, wave.land,
        attributes={
            "wave": wave.wave_id,
            "members": ",".join(wave.members),
            "items": wave.items,
            "calls": wave.calls,
        },
    )


def materialize_kept(
    log: ServeTraceLog, kept: Mapping[str, str]
) -> list[Span]:
    """Span forest for the sampler's kept set: request roots (trace-id
    order, each tagged with its keep reason) plus every wave span any
    kept request links to (flush order)."""
    waves = {wave.wave_id: wave for wave in log.waves}
    roots: list[Span] = []
    linked: set[str] = set()
    for record in sorted(log.records, key=lambda r: r.trace_id):
        reason = kept.get(record.trace_id)
        if reason is None:
            continue
        root = materialize_request(record, waves)
        root.set("sampled", reason)
        roots.append(root)
        linked.update(record.waves)
    for wave in log.waves:
        if wave.wave_id in linked:
            roots.append(materialize_wave(wave))
    return roots
