"""Online serving for hybrid queries: admission, scheduling, degradation.

The batch runners (:mod:`repro.harness.runner`) answer a fixed question
list as fast as possible.  This package answers a *stream*: multiple
tenants submit hybrid queries continuously, and the server must decide —
per request — whether to admit it, when to schedule it, and how much
quality to trade for staying inside its deadline.  Everything runs on a
virtual clock, so overload experiments are deterministic and free.

- :mod:`repro.serve.request` — the request/outcome types and the three
  terminal classes every offered request lands in (served, degraded,
  rejected).
- :mod:`repro.serve.admission` — load shedding at the front door:
  bounded queue, per-tenant quotas and token budgets, typed rejections
  with retry-after hints.
- :mod:`repro.serve.scheduler` — priority scheduling with
  starvation-free aging.
- :mod:`repro.serve.server` — the event-driven :class:`QueryServer`
  tying admission, scheduling, deadlines, and the circuit-breaker
  degradation path to the existing pipelines and shared caches
  (:mod:`repro.serve.state`), reported as a :class:`ServeReport`
  (:mod:`repro.serve.report`).
- :mod:`repro.serve.traffic` — seed-stable synthetic tenant traffic
  (Poisson and bursty arrivals).
"""

from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.batcher import BatchingConfig, CrossRequestBatcher
from repro.serve.request import (
    DEGRADED,
    REJECTED,
    SERVED,
    QueryRequest,
    RequestOutcome,
)
from repro.serve.scheduler import AgingPriorityQueue
from repro.serve.server import QueryServer, ServeReport, ServerConfig, VirtualClock
from repro.serve.traffic import TenantSpec, generate_traffic

__all__ = [
    "AdmissionController",
    "AgingPriorityQueue",
    "BatchingConfig",
    "CrossRequestBatcher",
    "DEGRADED",
    "QueryRequest",
    "QueryServer",
    "REJECTED",
    "RequestOutcome",
    "SERVED",
    "ServeReport",
    "ServerConfig",
    "TenantPolicy",
    "TenantSpec",
    "VirtualClock",
    "generate_traffic",
]
