"""Run-level call planning over one database's full question set.

The :class:`CallPlanner` front-loads the LLM work of many hybrid queries
into one deduplicated, longest-first dispatch, in one of two modes:

``prompt`` (behaviour-preserving)
    Collect the *exact* prompts each question's execution would issue
    (same pushdown, same batching, same text), dedup identical prompts
    across questions, and dispatch them through the executor's caching
    client.  Question-time execution then finds every prompt already in
    the cache, so results, EX, and token totals are byte-identical to
    the unplanned path — the plan only moves the paid calls earlier and
    schedules them longest-first (LPT) across the whole run instead of
    per ingredient.

``pairs`` (aggressive)
    Union the (attribute, key) pairs of all questions per ingredient
    signature, pack them with the executor's batch policy, and store the
    parsed answers in a :class:`~repro.udf.store.MappingStore`.
    Executors then answer fully-covered ingredients with zero LLM calls.
    Cross-question batching means fewer, fuller calls — and different
    prompt text, so answers may drift within the model's noise band;
    this mode trades strict identity for the token savings the paper's
    Table 4 prices.

Both modes read each question's work from the executor's ``prepare``
(the walk execution takes).  Both dispatch with ``capture_errors=True``
and never cache or store a failed call, so question-time execution
re-attempts exactly what the unplanned path would — the deterministic
mock fails the same way, keeping error behaviour aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.llm.batching import batched
from repro.llm.tokenizer import count_tokens
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.provenance import call_id_for
from repro.obs.trace import NULL_SPAN
from repro.udf.executor import HybridQueryExecutor
from repro.udf.ingredients import parse_map_answers
from repro.udf.store import MappingStore
from repro.vtime import LatencyModel

#: rough output-tokens-per-answered-key, for LPT ordering only — the
#: ordering needs relative sizes, not accurate absolutes
_EST_OUTPUT_TOKENS_PER_ITEM = 8


@dataclass(frozen=True)
class PlannedCall:
    """One LLM call the plan will dispatch.

    ``signature``/``batch`` are set in ``pairs`` mode for LLMMap/LLMJoin
    calls so the parsed answers can be stored per (signature, key); QA
    calls and all ``prompt``-mode calls carry only the prompt text.
    """

    prompt: str
    label: str
    signature: Optional[tuple] = None
    batch: Optional[tuple] = None

    def items(self) -> int:
        return len(self.batch) if self.batch else 1


@dataclass
class PlanStats:
    """Accounting for one planning pass (collection + dispatch)."""

    mode: str = "prompt"
    questions: int = 0
    #: prompt mode: prompts collected/unique; pairs mode: pairs
    collected: int = 0
    unique: int = 0
    signatures: int = 0
    planned_calls: int = 0
    #: dispatch outcome split: paid + cached + failed == planned_calls
    llm_calls: int = 0
    cached_calls: int = 0
    failed_calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    keys_stored: int = 0
    #: virtual seconds if the planned calls ran back to back
    estimated_sequential_seconds: float = 0.0
    #: (input, output) tokens of each paid planner call, for makespans
    call_sizes: list = field(default_factory=list)

    @property
    def dedup_pct(self) -> float:
        """Share of collected work eliminated by global dedup."""
        if self.collected == 0:
            return 0.0
        return 100.0 * (self.collected - self.unique) / self.collected

    def as_record(self) -> dict:
        return {
            "mode": self.mode,
            "questions": self.questions,
            "collected": self.collected,
            "unique": self.unique,
            "dedup_pct": round(self.dedup_pct, 2),
            "signatures": self.signatures,
            "planned_calls": self.planned_calls,
            "llm_calls": self.llm_calls,
            "cached_calls": self.cached_calls,
            "failed_calls": self.failed_calls,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "keys_stored": self.keys_stored,
        }


@dataclass
class Plan:
    """An ordered set of LLM calls covering a whole question set."""

    mode: str
    calls: list[PlannedCall] = field(default_factory=list)
    stats: PlanStats = field(default_factory=PlanStats)


class CallPlanner:
    """Plans and pre-executes the LLM calls of a batch of hybrid queries."""

    MODES = ("prompt", "pairs")

    def __init__(
        self,
        executor: HybridQueryExecutor,
        *,
        mode: str = "prompt",
        store: Optional[MappingStore] = None,
        latency: Optional[LatencyModel] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        self.executor = executor
        self.mode = mode
        # pairs mode fills the executor's store so execution can serve
        # from it; an explicitly passed store wins for standalone use.
        self.store = store if store is not None else executor.mapping_store
        if mode == "pairs" and self.store is None:
            self.store = MappingStore()
        self.latency = latency if latency is not None else LatencyModel()
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- planning ------------------------------------------------------------

    def plan(self, hybrid_queries: Sequence[str]) -> Plan:
        """Collect, dedup, and LPT-order the calls of all queries."""
        tel = self._tel
        stats = PlanStats(mode=self.mode, questions=len(hybrid_queries))
        with (
            tel.tracer.span("plan:collect", mode=self.mode)
            if tel.enabled
            else NULL_SPAN
        ) as span:
            if self.mode == "prompt":
                calls = self._collect_prompts(hybrid_queries, stats)
            else:
                calls = self._collect_pairs(hybrid_queries, stats)
            span.set("collected", stats.collected)
        with (
            tel.tracer.span("plan:dedup") if tel.enabled else NULL_SPAN
        ) as span:
            ordered = self._order(calls)
            span.set("unique", stats.unique)
            span.set("calls", len(ordered))
        stats.planned_calls = len(ordered)
        stats.estimated_sequential_seconds = round(
            sum(self._estimate_seconds(c) for c in ordered), 6
        )
        if tel.enabled:
            metrics = tel.metrics
            metrics.counter("plan.collected", mode=self.mode).inc(stats.collected)
            metrics.counter("plan.unique", mode=self.mode).inc(stats.unique)
        return Plan(mode=self.mode, calls=ordered, stats=stats)

    def _collect_prompts(
        self, hybrid_queries: Sequence[str], stats: PlanStats
    ) -> list[PlannedCall]:
        """Exact execution prompts, deduped across questions, first-seen order."""
        seen: dict[str, PlannedCall] = {}
        for sql in hybrid_queries:
            for prompt, label in self.executor.plan_calls(sql):
                stats.collected += 1
                if prompt not in seen:
                    seen[prompt] = PlannedCall(prompt=prompt, label=label)
        stats.unique = len(seen)
        return list(seen.values())

    def _collect_pairs(
        self, hybrid_queries: Sequence[str], stats: PlanStats
    ) -> list[PlannedCall]:
        """Union (attribute, key) pairs per signature, repacked into batches."""
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

    def _estimate_seconds(self, call: PlannedCall) -> float:
        model = self.latency
        return (
            model.base_seconds
            + model.per_input_token * count_tokens(call.prompt)
            + model.per_output_token * _EST_OUTPUT_TOKENS_PER_ITEM * call.items()
        )

    def _order(self, calls: list[PlannedCall]) -> list[PlannedCall]:
        """Longest-first (LPT), ties broken by collection order.

        LPT minimizes the parallel makespan bound: starting the largest
        batches first keeps the tail of the dispatch from being one big
        straggler on an otherwise idle pool.
        """
        indexed = sorted(
            range(len(calls)),
            key=lambda i: (-self._estimate_seconds(calls[i]), i),
        )
        return [calls[i] for i in indexed]

    # -- execution -----------------------------------------------------------

    def execute(self, plan: Plan) -> PlanStats:
        """Dispatch the planned calls; warm caches and fill the store."""
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
            outcomes = self.executor.dispatcher.dispatch(
                self.executor.client,
                [c.prompt for c in plan.calls],
                labels=[c.label for c in plan.calls],
                capture_errors=True,
            )
            for call, outcome in zip(plan.calls, outcomes):
                if outcome.error is not None:
                    # not cached, not stored: question-time execution
                    # re-attempts and fails identically (the mock is
                    # deterministic), preserving error behaviour.
                    stats.failed_calls += 1
                    continue
                usage = outcome.response.usage
                if usage.calls:
                    stats.llm_calls += 1
                    stats.input_tokens += usage.input_tokens
                    stats.output_tokens += usage.output_tokens
                    stats.call_sizes.append(
                        (usage.input_tokens, usage.output_tokens)
                    )
                else:
                    stats.cached_calls += 1
                if call.signature is not None and self.store is not None:
                    answers = parse_map_answers(
                        outcome.response.text, len(call.batch)
                    )
                    self.store.put(
                        call.signature,
                        dict(zip(call.batch, answers)),
                        call_ids=(
                            {
                                key: call_id_for(call.prompt)
                                for key in call.batch
                            }
                            if prov.enabled
                            else None
                        ),
                    )
                    stats.keys_stored += len(call.batch)
            span.set("llm_calls", stats.llm_calls)
            span.set("failed", stats.failed_calls)
        if tel.enabled:
            tel.metrics.counter("plan.llm_calls", mode=plan.mode).inc(
                stats.llm_calls
            )
        return stats

    def plan_and_execute(self, hybrid_queries: Sequence[str]) -> Plan:
        """The full pass: collect → dedup → order → dispatch."""
        plan = self.plan(hybrid_queries)
        self.execute(plan)
        return plan
