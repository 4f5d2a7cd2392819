"""Request and outcome types for the serving layer.

Every request a client *offers* terminates in exactly one of three
classes — that trichotomy is the serving layer's core invariant
(checked by :meth:`repro.serve.server.ServeReport.accounted`):

- :data:`SERVED` — a full answer, delivered inside the deadline;
- :data:`DEGRADED` — an answer with NULLs where LLM work was shed
  (deadline pressure, open breaker, or upstream faults), still delivered
  inside the deadline — quality shed before availability;
- :data:`REJECTED` — a typed refusal: load shedding at admission
  (queue full, tenant over quota, token budget spent) or a deadline that
  expired while the request sat in the queue.  Rejections carry a
  machine-readable ``reason`` and, for admission sheds, a ``retry_after``
  hint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: full answer inside the deadline
SERVED = "served"
#: NULL-degraded answer inside the deadline
DEGRADED = "degraded"
#: typed refusal (admission shed or queue-expired deadline)
REJECTED = "rejected"


@dataclass(frozen=True)
class QueryRequest:
    """One hybrid query submitted by one tenant.

    ``priority`` is a class, not a weight: lower runs first (0 =
    interactive, 1 = batch).  The scheduler ages queued requests so a
    high class can never starve.  ``deadline_seconds`` is the client's
    end-to-end budget measured from ``arrival`` on the server's virtual
    clock — queueing, LLM work, and delivery all count against it.
    """

    request_id: int
    tenant: str
    database: str
    sql: str
    arrival: float
    #: "udf" executes the hybrid SQL through HybridQueryExecutor;
    #: "hqdl" answers against the expanded schema, materialized before the
    #: server's first arrival
    pipeline: str = "udf"
    qid: str = ""
    priority: int = 1
    deadline_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.pipeline not in ("udf", "hqdl"):
            raise ValueError(
                f"pipeline must be 'udf' or 'hqdl', got {self.pipeline!r}"
            )
        if self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")

    @property
    def deadline_at(self) -> float:
        """Absolute virtual time at which the client gives up."""
        return self.arrival + self.deadline_seconds

    @property
    def trace_id(self) -> str:
        """Deterministic trace id — a pure function of the request id.

        Being derivable without any tracer state is what lets metric
        exemplars and incident context name traces unconditionally while
        serve outcomes stay byte-identical with tracing off.
        """
        return f"t{self.request_id:06d}"


@dataclass
class RequestOutcome:
    """How one offered request terminated.

    ``finish_time`` is when the answer (or refusal) reached the client;
    ``latency = finish_time - arrival`` and never exceeds the request's
    deadline.  ``queue_wait`` and ``service_seconds`` decompose the
    latency of dispatched requests; admission rejections have both at
    zero.  ``rows`` is the answer's row count (None for rejections).
    """

    request: QueryRequest
    status: str
    #: why a degraded/rejected outcome happened (None for clean serves):
    #: rejections use admission reasons (``queue_full``, ``tenant_quota``,
    #: ``token_budget``) or ``deadline_expired``; degradations use
    #: ``deadline``, ``breaker_open``, ``faults``, or ``error``
    reason: Optional[str] = None
    finish_time: float = 0.0
    queue_wait: float = 0.0
    service_seconds: float = 0.0
    retry_after: Optional[float] = None
    rows: Optional[int] = None
    llm_calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    degraded_keys: int = 0
    #: tokens (of ``input_tokens + output_tokens``) attributed from LLM
    #: calls shared with other requests by the cross-request batcher;
    #: 0 whenever batching is off, so it stays out of :meth:`as_record`
    shared_tokens: int = 0
    #: set on degraded outcomes that still produced a result object
    partial: bool = field(default=False, repr=False)

    @property
    def latency(self) -> float:
        return max(0.0, self.finish_time - self.request.arrival)

    @property
    def answered(self) -> bool:
        """True when the client got an answer (full or degraded)."""
        return self.status in (SERVED, DEGRADED)

    def as_record(self) -> dict:
        """A flat dict for ledgers and BENCH JSON."""
        return {
            "request_id": self.request.request_id,
            "tenant": self.request.tenant,
            "database": self.request.database,
            "pipeline": self.request.pipeline,
            "priority": self.request.priority,
            "status": self.status,
            "reason": self.reason,
            "arrival": round(self.request.arrival, 6),
            "finish": round(self.finish_time, 6),
            "latency": round(self.latency, 6),
            "queue_wait": round(self.queue_wait, 6),
            "service_seconds": round(self.service_seconds, 6),
            "llm_calls": self.llm_calls,
            "degraded_keys": self.degraded_keys,
        }
