"""Run-level call planning over one database's full question set.

The :class:`CallPlanner` unions the (attribute, key) pairs of many
hybrid queries per ingredient signature, packs them with the executor's
batch policy, pays for the batches before any question runs, and stores
the parsed answers in a :class:`~repro.udf.store.MappingStore`.
Executors then answer fully covered ingredients with zero LLM calls.
Cross-question batching means fewer, fuller calls — and different
prompt text, so answers may drift within the model's noise band; the
pass trades strict identity for the token savings the paper's Table 4
prices.  LLMQA prompts are collected and deduped as whole prompts, and
their completions warm the executor's prompt cache.

The planner reads each question's work from the executor's ``prepare``
(the walk execution takes) and pays through the executor's
:meth:`~repro.udf.executor.HybridQueryExecutor.pay`, charging every paid
call to one :class:`~repro.pipeline.ExecutionReport`.  A failed call is
neither cached nor stored, so question-time execution re-attempts
exactly what the unplanned path would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.llm.batching import batched
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.provenance import call_id_for
from repro.obs.trace import NULL_SPAN
from repro.pipeline import ExecutionReport
from repro.udf.executor import HybridQueryExecutor
from repro.udf.ingredients import parse_map_answers
from repro.udf.store import MappingStore


@dataclass(frozen=True)
class PlannedCall:
    """One LLM call the plan will pay for.

    ``signature``/``batch`` are set for LLMMap/LLMJoin batches so the
    parsed answers can be stored per (signature, key); QA calls carry
    only the prompt text.
    """

    prompt: str
    label: str
    signature: Optional[tuple] = None
    batch: Optional[tuple] = None


@dataclass
class PlanStats:
    """Accounting for one planning pass (collection + payment)."""

    questions: int = 0
    #: (attribute, key) pairs plus QA prompts, before and after dedup
    collected: int = 0
    unique: int = 0
    signatures: int = 0
    planned_calls: int = 0
    keys_stored: int = 0
    #: every paid planner call, charged once
    report: ExecutionReport = field(default_factory=ExecutionReport)

    @property
    def dedup_pct(self) -> float:
        """Share of collected work eliminated by global dedup."""
        if self.collected == 0:
            return 0.0
        return 100.0 * (self.collected - self.unique) / self.collected

    def as_record(self) -> dict:
        return {
            "questions": self.questions,
            "collected": self.collected,
            "unique": self.unique,
            "dedup_pct": round(self.dedup_pct, 2),
            "signatures": self.signatures,
            "planned_calls": self.planned_calls,
            "llm_calls": self.report.llm_calls,
            "keys_stored": self.keys_stored,
        }


@dataclass
class Plan:
    """The deduped LLM calls covering a whole question set."""

    calls: list[PlannedCall] = field(default_factory=list)
    stats: PlanStats = field(default_factory=PlanStats)


class CallPlanner:
    """Plans and pre-pays the LLM calls of a batch of hybrid queries."""

    def __init__(
        self,
        executor: HybridQueryExecutor,
        *,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.executor = executor
        # the executor's store, so execution serves from it
        self.store = executor.mapping_store
        if self.store is None:
            self.store = MappingStore()
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- planning ------------------------------------------------------------

    def plan(self, hybrid_queries: Sequence[str]) -> Plan:
        """Union pairs per signature, repacked into batches; QA deduped."""
        tel = self._tel
        stats = PlanStats(questions=len(hybrid_queries))
        with (
            tel.tracer.span("plan:collect") if tel.enabled else NULL_SPAN
        ) as span:
            calls = self._collect(hybrid_queries, stats)
            span.set("collected", stats.collected)
        stats.planned_calls = len(calls)
        if tel.enabled:
            tel.metrics.counter("plan.collected").inc(stats.collected)
            tel.metrics.counter("plan.unique").inc(stats.unique)
        return Plan(calls=calls, stats=stats)

    def _collect(
        self, hybrid_queries: Sequence[str], stats: PlanStats
    ) -> list[PlannedCall]:
        executor = self.executor
        # signature -> (first-seen work, ordered key set)
        requests: dict[tuple, tuple] = {}
        qa_seen: dict[str, PlannedCall] = {}
        for sql in hybrid_queries:
            for work in executor.prepare(sql).work():
                if work.prompt is not None:
                    stats.collected += 1
                    if work.prompt not in qa_seen:
                        qa_seen[work.prompt] = PlannedCall(
                            prompt=work.prompt, label=work.label
                        )
                    continue
                stats.collected += len(work.keys)
                signature = work.call.signature()
                if signature not in requests:
                    requests[signature] = (work, {})
                requests[signature][1].update(dict.fromkeys(work.keys))
        stats.signatures = len(requests)
        calls: list[PlannedCall] = list(qa_seen.values())
        unique_pairs = len(qa_seen)
        for signature, (first, key_order) in requests.items():
            keys = list(key_order)
            unique_pairs += len(keys)
            for batch in batched(keys, first.chunk_size):
                calls.append(
                    PlannedCall(
                        prompt=executor.map_prompt(first.call, batch),
                        label="udf:map",
                        signature=signature,
                        batch=tuple(batch),
                    )
                )
        stats.unique = unique_pairs
        return calls

    # -- execution -----------------------------------------------------------

    def execute(self, plan: Plan) -> PlanStats:
        """Pay for the planned calls; warm the cache and fill the store."""
        tel = self._tel
        stats = plan.stats
        prov = self.executor.provenance
        if prov.enabled:
            # planned dispatches of a prompt share the unplanned path's
            # call-id (a pure content hash); mark them as planner-issued
            for call in plan.calls:
                prov.record_planned(call.prompt, label=call.label)
        with (
            tel.tracer.span("plan:dispatch", calls=len(plan.calls))
            if tel.enabled
            else NULL_SPAN
        ) as span:
            texts = self.executor.pay(
                [c.prompt for c in plan.calls],
                [c.label for c in plan.calls],
                stats.report,
                None,
            )
            for call, text in zip(plan.calls, texts):
                # a failed call is not stored: question-time execution
                # re-attempts and fails identically (the mock is
                # deterministic), preserving error behaviour.  A
                # misaligned completion's NULLs are stored as parsed.
                if text is None or call.signature is None:
                    continue
                answers = parse_map_answers(text, len(call.batch))
                self.store.put(
                    call.signature,
                    dict(zip(call.batch, answers)),
                    call_ids=(
                        {key: call_id_for(call.prompt) for key in call.batch}
                        if prov.enabled
                        else None
                    ),
                )
                stats.keys_stored += len(call.batch)
            span.set("llm_calls", stats.report.llm_calls)
        if tel.enabled:
            tel.metrics.counter("plan.llm_calls").inc(stats.report.llm_calls)
        return stats

    def plan_and_execute(self, hybrid_queries: Sequence[str]) -> Plan:
        """The full pass: collect → dedup → pay."""
        plan = self.plan(hybrid_queries)
        self.execute(plan)
        return plan
