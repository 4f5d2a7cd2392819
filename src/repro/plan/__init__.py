"""Run-level LLM call planning.

The executor answers one question at a time, so its reuse horizon is a
single query (plus the per-database prompt cache).  This package plans
the LLM work of *all* questions over a database before the dispatcher
sees any of it:

- :class:`~repro.plan.planner.CallPlanner` unions every question's
  (attribute, key) pairs per ingredient up front, packs them into
  batches, and pays for them through the executor in one dispatch;
- :class:`~repro.udf.store.MappingStore` (re-exported here) holds the
  (attribute, key) → value answers planning and generation produce, so
  executors can answer questions without re-calling;
- :mod:`~repro.plan.policy` chooses per-attribute batch sizes from the
  calibrated model profiles instead of BlendSQL's fixed default of 5.
"""

from repro.plan.planner import CallPlanner, Plan, PlannedCall, PlanStats
from repro.plan.policy import DEFAULT_MAX_BATCH_SIZE, AdaptiveBatchPolicy
from repro.udf.store import MappingStore

__all__ = [
    "AdaptiveBatchPolicy",
    "CallPlanner",
    "DEFAULT_MAX_BATCH_SIZE",
    "MappingStore",
    "Plan",
    "PlannedCall",
    "PlanStats",
]
