"""Answer provenance: which LLM call produced every materialized cell.

The paper's evaluation can say *how often* a pipeline is wrong (EX, data
factuality F1) but not *why*: was a wrong cell generated by a knowledge
gap in the oracle, mangled by format drift, degraded to NULL by a failed
batch, or served stale from a cache?  This module records the lineage
needed to answer that, without perturbing a single result byte:

- every LLM call gets a **stable call-id** — a content hash of its
  prompt — so a call planned up front (:mod:`repro.plan`), replayed from
  a cache, or re-issued at question time all resolve to the *same* id,
  across runs and worker counts;
- every **call record** accumulates what the stack learned about that
  prompt: label, dispatch count, paid token sizes, the serving tier
  (``fresh`` / ``memory`` / ``disk`` / ``mapping-store``), retry count,
  fault history, and whether the call ultimately failed;
- every **cell record** names one materialized value — an LLMMap/LLMJoin
  mapping cell (``expansion`` tier when a resident HQDL expansion's
  cell served it), an LLMQA answer, or an HQDL expansion-table cell — and
  points at the call that produced it, flagged when the cell is NULL and
  whether the NULL came from degradation (call failed) or format drift
  (call returned, parse failed).

The default recorder is :data:`NULL_PROVENANCE`, a shared no-op
mirroring :data:`~repro.obs.NULL_TELEMETRY`: the hot path pays one
attribute check.  Recording is observation only — the enabled recorder
must be **result-invisible** (identical results and Usage with it on or
off), which tier-1 tests assert end to end.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: serving tiers a call record can carry, cheapest first
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_MAPPING_STORE = "mapping-store"
TIER_SEMANTIC = "semantic"
TIER_EXPANSION = "expansion"
TIER_FRESH = "fresh"


def call_id_for(prompt: str) -> str:
    """The stable call-id of one prompt: ``c`` + 12 hex of its SHA-256.

    A pure function of the prompt text, so planned and unplanned
    dispatches, cache replays, and reruns all agree on the id.
    """
    return "c" + hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]


@dataclass
class CallProvenance:
    """Everything recorded about one unique LLM prompt."""

    call_id: str
    prompt_hash: str
    label: str = ""
    planned: bool = False
    #: how the prompt was served the *last* time it was requested
    tier: str = TIER_FRESH
    #: how many times any layer requested this prompt
    dispatches: int = 0
    #: transient faults survived by retries, in observation order
    faults: list[str] = field(default_factory=list)
    retries: int = 0
    #: set when the call ultimately failed (budget exhausted, fatal)
    failed: bool = False
    error: str = ""
    #: token sizes of the paid upstream call (0/0 until one is paid)
    input_tokens: int = 0
    output_tokens: int = 0
    paid_calls: int = 0

    def as_record(self) -> dict:
        return {
            "call_id": self.call_id,
            "prompt_hash": self.prompt_hash,
            "label": self.label,
            "planned": self.planned,
            "tier": self.tier,
            "dispatches": self.dispatches,
            "retries": self.retries,
            "faults": list(self.faults),
            "failed": self.failed,
            "error": self.error,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "paid_calls": self.paid_calls,
        }


@dataclass(frozen=True)
class CellProvenance:
    """One materialized value and the call that produced it."""

    pipeline: str
    database: str
    #: the question being executed when the cell materialized ("" for
    #: HQDL generation, which happens once per database)
    qid: str
    #: ingredient signature label (UDF) or expansion table name (HQDL)
    table: str
    key: tuple
    column: str
    call_id: str
    #: the serving tier of the producing call when the cell materialized
    tier: str = TIER_FRESH
    #: the cell materialized as NULL / was dropped
    null: bool = False
    #: the NULL came from a failed call (vs. format/parse drift)
    degraded: bool = False

    def as_record(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "database": self.database,
            "qid": self.qid,
            "table": self.table,
            "key": list(self.key),
            "column": self.column,
            "call_id": self.call_id,
            "tier": self.tier,
            "null": self.null,
            "degraded": self.degraded,
        }


class _Context:
    """Restores the previous thread-local context frame on exit."""

    __slots__ = ("_recorder", "_previous")

    def __init__(self, recorder: "ProvenanceRecorder", previous: dict) -> None:
        self._recorder = recorder
        self._previous = previous

    def __enter__(self) -> "_Context":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._local.frame = self._previous
        return False


class ProvenanceRecorder:
    """Thread-safe lineage recorder for one run.

    Call-side hooks (:meth:`record_call`, :meth:`record_outcome`,
    :meth:`record_tier`, :meth:`record_retry`, :meth:`record_failure`)
    are invoked by the LLM stack — dispatcher, caches, retry layer —
    keyed by prompt text.  Cell-side hooks (:meth:`record_cell`) are
    invoked by the pipelines as values materialize.  The pipeline /
    database / question context is thread-local, set by the harness
    runners via :meth:`context`, so concurrent databases never mix.
    """

    enabled = True

    def __init__(self) -> None:
        self._calls: dict[str, CallProvenance] = {}
        self._cells: list[CellProvenance] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- context -----------------------------------------------------------------

    def context(
        self,
        *,
        pipeline: Optional[str] = None,
        database: Optional[str] = None,
        qid: Optional[str] = None,
    ) -> _Context:
        """Layer (pipeline, database, qid) onto this thread's context."""
        previous = getattr(self._local, "frame", None) or {}
        frame = dict(previous)
        if pipeline is not None:
            frame["pipeline"] = pipeline
        if database is not None:
            frame["database"] = database
        if qid is not None:
            frame["qid"] = qid
        self._local.frame = frame
        return _Context(self, previous)

    def _frame(self) -> dict:
        return getattr(self._local, "frame", None) or {}

    # -- call-side hooks ---------------------------------------------------------

    def record_call(
        self, prompt: str, *, label: str = "", planned: bool = False
    ) -> str:
        """Get-or-create the call record of one prompt; returns its id."""
        cid = call_id_for(prompt)
        with self._lock:
            record = self._calls.get(cid)
            if record is None:
                record = CallProvenance(call_id=cid, prompt_hash=cid[1:])
                self._calls[cid] = record
            if label and not record.label:
                record.label = label
            if planned:
                record.planned = True
            record.dispatches += 1
        return cid

    def record_outcome(self, prompt: str, usage=None, error: str = "") -> str:
        """Record how one dispatch of ``prompt`` ended.

        Paid token sizes are only taken from responses that actually
        reached the model (``usage.calls > 0``) — a zero-usage cache hit
        must not erase the paid call's sizes.
        """
        cid = self._ensure(prompt)
        with self._lock:
            record = self._calls[cid]
            if error:
                record.failed = True
                record.error = error
            elif usage is not None and usage.calls:
                record.input_tokens = usage.input_tokens
                record.output_tokens = usage.output_tokens
                record.paid_calls += usage.calls
                record.failed = False
                record.error = ""
        return cid

    def record_planned(self, prompt: str, *, label: str = "") -> str:
        """Mark one prompt as issued by the run-level planner.

        Unlike :meth:`record_call` this does not count a dispatch — the
        dispatcher counts the planner's actual dispatch itself — so the
        planned and unplanned paths agree on dispatch totals.
        """
        cid = self._ensure(prompt)
        with self._lock:
            record = self._calls[cid]
            record.planned = True
            if label and not record.label:
                record.label = label
        return cid

    def record_tier(self, prompt: str, tier: str) -> None:
        """Record the tier that served the latest request for ``prompt``."""
        cid = self._ensure(prompt)
        with self._lock:
            self._calls[cid].tier = tier

    def record_retry(self, prompt: str, fault: str) -> None:
        """One transient fault absorbed by the retry layer."""
        cid = self._ensure(prompt)
        with self._lock:
            record = self._calls[cid]
            record.retries += 1
            record.faults.append(fault)

    def record_failure(self, prompt: str, error: str) -> None:
        """The call for ``prompt`` ultimately failed (budget spent, fatal)."""
        self.record_outcome(prompt, error=error)

    def _ensure(self, prompt: str) -> str:
        cid = call_id_for(prompt)
        with self._lock:
            if cid not in self._calls:
                self._calls[cid] = CallProvenance(
                    call_id=cid, prompt_hash=cid[1:]
                )
        return cid

    # -- cell-side hooks ---------------------------------------------------------

    def record_cell(
        self,
        table: str,
        key: tuple,
        column: str,
        call_id: str,
        *,
        null: bool = False,
        degraded: bool = False,
        tier: Optional[str] = None,
    ) -> None:
        """One materialized cell, attributed to its producing call.

        ``tier`` defaults to the producing call's current serving tier —
        cells are recorded immediately after their dispatch, so "current"
        is the tier that actually served them.
        """
        frame = self._frame()
        with self._lock:
            if tier is None:
                record = self._calls.get(call_id)
                tier = record.tier if record is not None else TIER_FRESH
            self._cells.append(
                CellProvenance(
                    pipeline=frame.get("pipeline", ""),
                    database=frame.get("database", ""),
                    qid=frame.get("qid", ""),
                    table=table,
                    key=tuple(key),
                    column=column,
                    call_id=call_id,
                    tier=tier,
                    null=null,
                    degraded=degraded,
                )
            )

    # -- queries -----------------------------------------------------------------

    def calls(self) -> list[CallProvenance]:
        with self._lock:
            return list(self._calls.values())

    def call(self, call_id: str) -> Optional[CallProvenance]:
        with self._lock:
            return self._calls.get(call_id)

    def cells(self) -> list[CellProvenance]:
        with self._lock:
            return list(self._cells)

    def cells_for(
        self,
        *,
        qid: Optional[str] = None,
        database: Optional[str] = None,
        pipeline: Optional[str] = None,
    ) -> list[CellProvenance]:
        """Cells filtered by any combination of qid/database/pipeline."""
        with self._lock:
            return [
                cell
                for cell in self._cells
                if (qid is None or cell.qid == qid)
                and (database is None or cell.database == database)
                and (pipeline is None or cell.pipeline == pipeline)
            ]

    def chain(self, cell: CellProvenance) -> dict:
        """One cell joined with its producing call, for explain output."""
        record = self.call(cell.call_id)
        return {
            "cell": cell.as_record(),
            "call": record.as_record() if record is not None else None,
        }

    def stats(self) -> dict:
        """A flat snapshot for reports and BENCH JSON."""
        with self._lock:
            cells = self._cells
            return {
                "calls": len(self._calls),
                "cells": len(cells),
                "null_cells": sum(1 for c in cells if c.null),
                "degraded_cells": sum(1 for c in cells if c.degraded),
                "planned_calls": sum(
                    1 for r in self._calls.values() if r.planned
                ),
                "failed_calls": sum(
                    1 for r in self._calls.values() if r.failed
                ),
                "retried_calls": sum(
                    1 for r in self._calls.values() if r.retries
                ),
            }

    def __iter__(self) -> Iterator[CellProvenance]:
        return iter(self.cells())


class _NullContext:
    """Shared no-op context manager for the disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullProvenance:
    """The disabled recorder: every hook is a no-op, every query empty."""

    enabled = False

    __slots__ = ()

    def context(self, **kwargs) -> _NullContext:
        return _NULL_CONTEXT

    def record_call(self, prompt: str, *, label: str = "", planned: bool = False) -> str:
        return ""

    def record_outcome(self, prompt: str, usage=None, error: str = "") -> str:
        return ""

    def record_planned(self, prompt: str, *, label: str = "") -> str:
        return ""

    def record_tier(self, prompt: str, tier: str) -> None:
        pass

    def record_retry(self, prompt: str, fault: str) -> None:
        pass

    def record_failure(self, prompt: str, error: str) -> None:
        pass

    def record_cell(self, table, key, column, call_id, **kwargs) -> None:
        pass

    def calls(self) -> list:
        return []

    def call(self, call_id: str) -> None:
        return None

    def cells(self) -> list:
        return []

    def cells_for(self, **kwargs) -> list:
        return []

    def stats(self) -> dict:
        return {"calls": 0, "cells": 0}

    def __iter__(self):
        return iter(())


#: The shared disabled recorder every component defaults to.
NULL_PROVENANCE = NullProvenance()


def resolve_provenance(provenance) -> object:
    """``provenance`` or the shared null recorder (never None)."""
    return provenance if provenance is not None else NULL_PROVENANCE
