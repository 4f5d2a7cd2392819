"""The hybrid query executor (BlendSQL-equivalent).

Execution plan for one hybrid query:

1. Parse the dialect SQL; collect every ``{{...}}`` ingredient — once
   per distinct SQL text (see :class:`PreparedStatement`).
2. For each **LLMMap**: find its owning SELECT scope, apply predicate
   pushdown to fetch only the key tuples that database-only predicates
   allow (a fetch the connection memoizes until its data changes:
   :meth:`~repro.sqlengine.database.Database.fetch_keys`), batch the
   keys (default 5 per call, Section 5.4), prompt the model, and bind
   the answers to a lookup function registered on the connection
   (:class:`~repro.sqlengine.database.LookupFunction`).
3. For each **LLMQA**: one scalar call; the answer becomes a literal.
4. For each **LLMJoin**: like LLMMap, but materialized into a TEMP table,
   because a FROM source needs one.
5. Rewrite the AST — map ingredients become ``CAST(lookup(keys) AS
   TEXT)`` calls — render plain SQLite SQL, execute, unbind.

All LLM traffic goes through a prompt-keyed cache
(:class:`~repro.llm.cache.CachingClient`), reproducing BlendSQL's reuse
semantics: identical prompts are free, semantically-equal-but-textually-
different prompts are not (Section 5.5).

With ``workers > 1`` the batches of each LLMMap/LLMJoin are dispatched
concurrently over a worker pool (:mod:`repro.llm.parallel`) — the
parallelized LLM calls the paper lists as future work.  Results are
deterministic: the cache's single-flight guarantee plus ordered dispatch
make ``workers=8`` byte-identical to ``workers=1``.

**Prepare once, execute many.**  Everything that is a pure function of
(SQL text, schema, executor configuration) lives in a bounded
per-executor cache of :class:`PreparedStatement` entries: the parsed
tree (owned by the entry), each distinct ingredient occurrence with its
validated call and resolved alias, its key-fetch SQL (pushdown analysis
done once), and a fixed *slot* per occurrence — a lookup function for
LLMMap, a temp table for LLMJoin, acquired on first use and reused — so
a repeated text costs no parse and no AST walk, an LLMMap-only one no
DDL and no table write, and its rewritten SQL is a constant string.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.errors import IngredientError, ReproError
from repro.llm.batching import (
    DEFAULT_BATCH_SIZE,
    LatencyModel,
    batched,
    parallel_makespan,
    sequential_makespan,
)
from repro.llm.cache import CachingClient, PromptCache
from repro.llm.client import ChatClient
from repro.llm.declarative import PromptSpec
from repro.llm.intent import (
    ANSWER_MARKER,
    MAP_EXAMPLE_MARKER,
    MAP_KEYS_MARKER,
    QUESTION_MARKER,
    MapHeader,
    MapIntent,
    Prompt,
    QaIntent,
    inert,
    plain_keys,
    quote_field,
)
from repro.llm.parallel import ParallelDispatcher
from repro.llm.resilience import ResilienceReport
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import TIER_MAPPING_STORE, TIER_SEMANTIC, call_id_for
from repro.obs.trace import NULL_SPAN
from repro.sqlparser import ast, parse, render
from repro.sqlparser.render import quote_identifier, render_expression
from repro.sqlparser.rewrite import replace_ingredients, walk
from repro.sqlengine.database import Database, LookupFunction
from repro.sqlengine.results import ResultSet
from repro.swan.base import World
from repro.udf.fewshot import DemonstrationPool, FewShotSelector
from repro.udf.ingredients import (
    IngredientCall,
    parse_ingredient_call,
    parse_map_answers,
)
from repro.udf.pushdown import calls_no_function, pushable_conjuncts, resolve_alias
from repro.udf.semantic_cache import SemanticCache
from repro.udf.views import MaterializedViewStore

if TYPE_CHECKING:  # no runtime import: repro.plan imports from this module
    from repro.plan.store import MappingStore

#: prepared statements kept per executor, least recently used evicted
#: first (SWAN has 30 distinct texts per database); an evicted statement
#: releases its slots
PREPARED_CACHE_SIZE = 256
#: final SQL strings kept per prepared statement: one per distinct
#: combination of LLMQA answers it has been filled with
RENDER_MEMO_SIZE = 8

#: demonstration pools per (world name, scale) — rebuilt only when the
#: cached entry belongs to a *different* world object of the same name
#: (hand-built test worlds must never reuse a benchmark world's pool)
_DEMO_POOLS: dict[tuple[str, int], tuple[World, DemonstrationPool]] = {}


def _demo_pool(world: World) -> DemonstrationPool:
    """The demonstration pool for a world, cached across executor instances.

    Pool construction hashes every truth key once per column; at scale
    100 that is ~10^5 draws a fresh executor would redo per run even
    though the pool is a pure function of the world.  Identity (not
    equality) guards the cache, so any new world object — however named
    — gets its own freshly derived pool.
    """
    cached = _DEMO_POOLS.get((world.name, world.scale))
    if cached is not None and cached[0] is world:
        return cached[1]
    pool = DemonstrationPool(world)
    _DEMO_POOLS[(world.name, world.scale)] = (world, pool)
    return pool


def _plain_header(
    database: str, question: str, options: Sequence[str], demos: list[str]
) -> bool:
    """Whether a map/QA prompt's key-independent lines read back as written.

    The question must also keep no surrounding space (the reader strips
    its line); a demonstration line is checked past its own marker.
    """
    return (
        inert(database)
        and inert(question)
        and question == question.strip()
        and all(map(inert, options))
        and all(inert(line[len(MAP_EXAMPLE_MARKER):]) for line in demos)
    )


@dataclass
class ExecutionReport:
    """Diagnostics for one hybrid query execution."""

    llm_calls: int = 0
    keys_generated: int = 0
    keys_after_pushdown: dict[str, int] = field(default_factory=dict)
    rewritten_sql: str = ""
    #: (input_tokens, output_tokens) of each paid (non-cached) LLM call,
    #: the input to the latency/parallelism model in repro.llm.batching.
    call_sizes: list[tuple[int, int]] = field(default_factory=list)
    #: batches whose LLM call ultimately failed (after any retry layer
    #: gave up) and were degraded to NULL answers, and the keys they held.
    degraded_batches: int = 0
    degraded_keys: int = 0

    def estimated_latency(
        self, workers: int = 1, model: Optional[LatencyModel] = None
    ) -> float:
        """Estimated wall-clock seconds for this query's LLM traffic.

        ``workers=1`` is sequential BlendSQL behaviour; higher values
        model the parallel execution that
        :class:`~repro.llm.parallel.ParallelDispatcher` performs for
        real when the executor gets a ``workers`` knob > 1.
        """
        if workers <= 1:
            return sequential_makespan(self.call_sizes, model)
        return parallel_makespan(self.call_sizes, workers, model)


class HybridQueryExecutor:
    """Executes hybrid (BlendSQL-dialect) queries over one curated database."""

    def __init__(
        self,
        db: Database,
        client: ChatClient,
        world: World,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        pushdown: bool = True,
        shots: int = 0,
        cache: Optional[PromptCache] = None,
        selector: Optional[FewShotSelector] = None,
        semantic_cache: Optional[SemanticCache] = None,
        views: Optional[MaterializedViewStore] = None,
        workers: int = 1,
        resilience: Optional[ResilienceReport] = None,
        telemetry: Optional[Telemetry] = None,
        batch_policy: Optional[object] = None,
        mapping_store: Optional["MappingStore"] = None,
        provenance=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.db = db
        self.world = world
        self.batch_size = batch_size
        self.pushdown = pushdown
        self.shots = shots
        self.workers = workers
        #: per ingredient: the text above its key lines, and the header
        #: its map intents share (None when that text would not read back)
        self._map_prefix_cache: dict[
            IngredientCall, tuple[str, Optional[MapHeader]]
        ] = {}
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        self.dispatcher = ParallelDispatcher(
            workers, telemetry=self._tel, provenance=self._prov
        )
        self.cache = cache if cache is not None else PromptCache()
        self.client = CachingClient(
            client, self.cache, telemetry=self._tel, provenance=self._prov
        )
        self._m_degraded_batches = self._tel.metrics.counter(
            "pipeline.degraded_batches"
        )
        self._m_degraded_keys = self._tel.metrics.counter("pipeline.degraded_keys")
        if selector is None and shots > 0:
            selector = FewShotSelector(_demo_pool(world))
        self.selector = selector
        self.semantic_cache = semantic_cache
        self.views = views
        self.resilience = resilience
        #: any object with ``batch_size(call) -> int`` (repro.plan.policy);
        #: None keeps the fixed ``batch_size`` — BlendSQL's behaviour.
        self.batch_policy = batch_policy
        #: filled by a pairs-mode CallPlanner; fully-covered ingredients
        #: are answered from it with zero LLM calls.
        self.mapping_store = mapping_store
        #: when True, freshly generated mappings are published back into
        #: ``mapping_store`` so later requests (the serving layer's
        #: cross-tenant reuse) can be answered from it.  Off by default:
        #: store-served values skip batching, so answers may drift within
        #: model noise relative to a cold run.
        self.publish_mappings = False
        #: optional request-level :class:`~repro.llm.resilience.Deadline`
        #: (set per request by the serving layer): once expired, mapping
        #: batches are skipped with typed degradable outcomes (NULL
        #: cells) and QA answers degrade to NULL — the query still
        #: completes, it never hangs past its budget.
        self.deadline = None
        #: SQL text -> its prepared statement, least recently used first
        self._prepared: OrderedDict[str, PreparedStatement] = OrderedDict()

    # -- public API --------------------------------------------------------------

    def execute(self, hybrid_sql: str) -> ResultSet:
        """Execute a hybrid query and return its result set."""
        result, _ = self.execute_with_report(hybrid_sql)
        return result

    def execute_with_report(
        self, hybrid_sql: Union[str, ast.Select]
    ) -> tuple[ResultSet, ExecutionReport]:
        """Execute and also return pushdown/call diagnostics.

        ``hybrid_sql`` may be an already parsed statement; execution
        never mutates it (and, not owning it, prepares it for this call
        only).
        """
        tel = self._tel
        if not tel.enabled:
            return self._execute_with_report(hybrid_sql)
        with tel.tracer.span("udf:query") as span:
            result, report = self._execute_with_report(hybrid_sql)
            span.set("llm_calls", report.llm_calls)
            span.set("keys_generated", report.keys_generated)
            return result, report

    def _execute_with_report(
        self, hybrid_sql: Union[str, ast.Select]
    ) -> tuple[ResultSet, ExecutionReport]:
        tel = self._tel
        report = ExecutionReport()
        with (tel.tracer.span("sql:parse") if tel.enabled else NULL_SPAN):
            prepared = self._prepare(hybrid_sql)
        try:
            fillings = self._fill_ingredients(prepared, report)
            with (tel.tracer.span("sql:rewrite") if tel.enabled else NULL_SPAN):
                report.rewritten_sql = prepared.final_sql(fillings)
            with (tel.tracer.span("sql:execute") if tel.enabled else NULL_SPAN):
                result = self.db.query(report.rewritten_sql)
        finally:
            # a bound mapping outliving its query would pin every
            # generated value until the statement's next execution
            if prepared.cached:
                for occurrence in prepared.occurrences:
                    if occurrence.lookup is not None:
                        occurrence.lookup.unbind()
            else:
                self._release_slots(prepared)
        return result, report

    # -- prepared statements -----------------------------------------------------

    def _prepare(self, hybrid_sql: Union[str, ast.Select]) -> "PreparedStatement":
        """The prepared statement for a query text, parsed at most once.

        The cache is per executor because what it holds depends on this
        executor's schema and ``pushdown`` setting, and its entries own
        their trees: nothing is remembered about a node the cache does
        not keep alive.  A caller's pre-parsed statement is prepared
        afresh and never cached — the tree is theirs.
        """
        if isinstance(hybrid_sql, ast.Select):
            return PreparedStatement(hybrid_sql, cached=False)
        prepared = self._prepared.get(hybrid_sql)
        if prepared is not None:
            self._prepared.move_to_end(hybrid_sql)
            return prepared
        prepared = PreparedStatement(parse(hybrid_sql), cached=True)
        self._prepared[hybrid_sql] = prepared
        if len(self._prepared) > PREPARED_CACHE_SIZE:
            _, evicted = self._prepared.popitem(last=False)
            self._release_slots(evicted)
        return prepared

    def _release_slots(self, prepared: "PreparedStatement") -> None:
        """Give back the slots of a statement leaving the executor.

        Lookup functions return to the connection for reuse; LLMJoin
        tables are dropped.
        """
        for occurrence in prepared.occurrences:
            if occurrence.lookup is not None:
                self.db.release_lookup(occurrence.lookup)
                occurrence.lookup = None
            if occurrence.table is not None:
                self.db.drop_temp_table(occurrence.table)
                occurrence.table = None

    @staticmethod
    def _walk(prepared: "PreparedStatement") -> Iterator["_Occurrence"]:
        """The one ingredient walk: each distinct occurrence, in order.

        Execution and both dry runs iterate this, so they agree on scope
        resolution, signature sharing and — by raising a malformed
        occurrence's error only on reaching it — on the prefix of work
        done before a query fails.
        """
        for occurrence in prepared.occurrences:
            if occurrence.error is not None:
                # a fresh traceback each time: the exception object is
                # kept, and would otherwise grow a frame per raise
                raise occurrence.error.with_traceback(None)
            yield occurrence

    def _fill_ingredients(
        self, prepared: "PreparedStatement", report: ExecutionReport
    ) -> tuple[Optional[str], ...]:
        """Run every ingredient; what each occurrence is replaced with.

        A filling is the LLMQA answer (None for NULL), the name of the
        lookup function holding an LLMMap mapping, or the name of the
        table holding an LLMJoin one.
        """
        tel = self._tel
        fillings: list[Optional[str]] = []
        for occurrence in self._walk(prepared):
            call = occurrence.call
            with (
                tel.tracer.span(
                    "udf:ingredient", kind=call.kind, question=call.question
                )
                if tel.enabled
                else NULL_SPAN
            ):
                if call.kind == "LLMQA":
                    filling = self._run_qa(call)
                elif call.kind == "LLMMap":
                    filling = self._run_map(occurrence, report)
                else:  # LLMJoin
                    filling = self._run_join(occurrence, report)
            fillings.append(filling)
        return tuple(fillings)

    def _batch_size_for(self, call: IngredientCall) -> int:
        """The batch size for one ingredient: policy when set, else fixed."""
        if self.batch_policy is None:
            return self.batch_size
        return self.batch_policy.batch_size(call)

    def _view_table(self, call: IngredientCall) -> Optional[str]:
        """The materialized view already answering an LLMMap, if any."""
        if self.views is None:
            return None
        return self.views.table_for(call.signature())

    # -- call planning (dry run) --------------------------------------------------
    #
    # Both methods replay the ingredient walk of execution without
    # issuing any LLM call, for the run-level CallPlanner (repro.plan)
    # and the serving layer.  They assume the executor-level caches that
    # consult the model themselves (semantic cache) are not attached —
    # the harness runners never attach them — and share everything else
    # with execution through ``_walk``, including the stop-at-first-error
    # prefix semantics.

    def plan_calls(self, hybrid_sql: str) -> list[tuple[str, str]]:
        """The exact (prompt, label) sequence executing this query would issue.

        A query that would fail mid-plan (bad ingredient placement, SQL
        errors in key fetching) contributes the prefix of prompts issued
        before the failure — the same calls real execution pays for
        before raising.
        """
        prompts: list[tuple[str, str]] = []
        report = ExecutionReport()
        try:
            for occurrence in self._walk(self._prepare(hybrid_sql)):
                call = occurrence.call
                if call.kind == "LLMQA":
                    prompts.append((self._qa_prompt(call.question), "udf:qa"))
                elif call.kind == "LLMJoin" or self._view_table(call) is None:
                    keys = self._fetch_keys(occurrence, report)
                    for batch in batched(keys, self._batch_size_for(call)):
                        prompts.append((self._map_prompt(call, batch), "udf:map"))
        except ReproError:
            pass
        return prompts

    def plan_key_requests(
        self, hybrid_sql: Union[str, ast.Select]
    ) -> tuple[list[tuple[IngredientCall, list[tuple]]], list[str]]:
        """The (attribute, key) demand of this query, before batching.

        Returns ``(map_requests, qa_prompts)`` where each map request is
        an LLMMap/LLMJoin call paired with the key tuples it needs —
        the unit a pairs-mode planner unions across questions.  Accepts
        an already parsed statement, like :meth:`execute_with_report`.
        """
        map_requests: list[tuple[IngredientCall, list[tuple]]] = []
        qa_prompts: list[str] = []
        report = ExecutionReport()
        try:
            for occurrence in self._walk(self._prepare(hybrid_sql)):
                call = occurrence.call
                if call.kind == "LLMQA":
                    qa_prompts.append(self._qa_prompt(call.question))
                else:
                    map_requests.append(
                        (call, self._fetch_keys(occurrence, report))
                    )
        except ReproError:
            pass
        return map_requests, qa_prompts

    # -- LLMQA -------------------------------------------------------------------

    def _run_qa(self, call: IngredientCall) -> Optional[str]:
        """The scalar answer that replaces an LLMQA (None renders NULL)."""
        tel = self._tel
        if self.deadline is not None and self.deadline.expired:
            # same degradation contract as a skipped mapping batch: the
            # scalar becomes NULL instead of blocking past the budget
            if self.resilience is not None:
                self.resilience.record_degraded(1)
            return None
        prompt = self._qa_prompt(call.question)
        if self._prov.enabled:
            # QA bypasses the dispatcher, so the executor records the call
            self._prov.record_call(prompt, label="udf:qa")
        with (
            tel.tracer.span("llm:call", label="udf:qa")
            if tel.enabled
            else NULL_SPAN
        ) as span:
            response = self.client.complete(prompt, label="udf:qa")
            if self._prov.enabled:
                self._prov.record_outcome(prompt, usage=response.usage)
            if tel.enabled:
                usage = response.usage
                span.set("cached", usage.calls == 0)
                span.set("input_tokens", usage.input_tokens)
                span.set("output_tokens", usage.output_tokens)
                metrics = tel.metrics
                metrics.counter("llm.tokens.input", stage="udf:qa").inc(
                    usage.input_tokens
                )
                metrics.counter("llm.tokens.output", stage="udf:qa").inc(
                    usage.output_tokens
                )
                metrics.counter("llm.calls", stage="udf:qa").inc(usage.calls)
        answer = response.text.strip().splitlines()
        return answer[-1].strip() if answer else ""

    def _qa_prompt(self, question: str) -> Prompt:
        demos = self._demo_lines(question)
        spec = PromptSpec()
        spec.add_task(
            "Answer the question with a single short value and no explanation."
        )
        spec.add_schema(f"Database: {self.world.name}")
        for line in demos:
            spec.add_demonstration(line)
        spec.add_target(f"{QUESTION_MARKER} {question}")
        spec.add_cue(ANSWER_MARKER)
        text = spec.render()
        if not _plain_header(self.world.name, question, (), demos):
            return Prompt(text)
        return Prompt(text, QaIntent(question, len(demos)))

    # -- LLMMap ------------------------------------------------------------------

    def _run_map(self, occurrence: "_Occurrence", report: ExecutionReport) -> str:
        """Generate one LLMMap's mapping; the function the rewrite reads it from."""
        call = occurrence.call
        view_table = self._view_table(call)
        if view_table is not None:
            # read the materialized view, no LLM calls
            rows = self.db.query_rows(
                f"SELECT * FROM {quote_identifier(view_table)}"
            )
            return self._bind(occurrence, {row[:-1]: row[-1] for row in rows})
        tel = self._tel
        with (
            tel.tracer.span("udf:fetch_keys", pushdown=self.pushdown)
            if tel.enabled
            else NULL_SPAN
        ) as span:
            keys = self._fetch_keys(occurrence, report)
            span.set("keys", len(keys))
        mapping = self._generate_mapping(call, keys, report)
        with (tel.tracer.span("udf:materialize") if tel.enabled else NULL_SPAN):
            self._maybe_materialize_view(call, mapping)
            return self._bind(occurrence, mapping)

    def _bind(
        self, occurrence: "_Occurrence", mapping: dict[tuple, Optional[str]]
    ) -> str:
        """Bind a mapping to the occurrence's lookup function; its name.

        The function is acquired from the connection the first time the
        occurrence runs and kept ever after, so a repeated statement
        writes nothing to the database and reads only the current
        execution's mapping.
        """
        lookup = occurrence.lookup
        if lookup is None:
            lookup = self.db.acquire_lookup(len(occurrence.call.key_columns))
            occurrence.lookup = lookup
        lookup.bind(mapping)
        return lookup.name

    def _fetch_keys(
        self, occurrence: "_Occurrence", report: ExecutionReport
    ) -> list[tuple]:
        """Distinct key tuples, after predicate pushdown when enabled.

        Served by the connection's key memo, shared with every executor,
        dry run and request on it, unless a pushed predicate calls a
        function, which might select other keys from the same rows.
        """
        sql = self._key_sql(occurrence)
        keys = self.db.fetch_keys(sql, reuse=occurrence.key_reusable)
        report.keys_after_pushdown[occurrence.call.question] = len(keys)
        return keys

    def _key_sql(self, occurrence: "_Occurrence") -> str:
        """The key-fetch query of one occurrence, analysed on first use.

        The same walk over the pushed conjuncts decides whether the
        fetch may be reused (``occurrence.key_reusable``).
        """
        if occurrence.key_sql is not None:
            return occurrence.key_sql
        call, alias = occurrence.call, occurrence.alias
        columns = ", ".join(
            f"{quote_identifier(alias)}.{quote_identifier(c)}"
            for c in call.key_columns
        )
        from_clause = quote_identifier(call.source_table)
        if alias != call.source_table:
            from_clause += f" AS {quote_identifier(alias)}"
        # NOT INDEXED pins the scan order: key order (and therefore batch
        # packing and prompt text) must not depend on which indexes the
        # database happens to carry — reuse hinges on byte-equal prompts.
        sql = f"SELECT DISTINCT {columns} FROM {from_clause} NOT INDEXED"
        if self.pushdown and occurrence.owner is not None:
            source_columns = set(self.db.table_columns(call.source_table))
            conjuncts = pushable_conjuncts(occurrence.owner, alias, source_columns)
            if conjuncts:
                rendered = " AND ".join(
                    f"({render_expression(c)})" for c in conjuncts
                )
                sql += f" WHERE {rendered}"
                occurrence.key_reusable = all(map(calls_no_function, conjuncts))
        occurrence.key_sql = sql
        return sql

    def _generate_mapping(
        self,
        call: IngredientCall,
        keys: list[tuple],
        report: ExecutionReport,
    ) -> dict[tuple, Optional[str]]:
        """Batched LLM calls answering the question for every key.

        With a :class:`~repro.udf.semantic_cache.SemanticCache` attached,
        previously generated values for semantically equivalent questions
        are reused per key (query rewriting, Section 4.3) and only the
        missing keys reach the model.

        All batches of one ingredient go through the dispatcher at once,
        so with ``workers > 1`` they run concurrently (Section 4.3 / 6
        future work).  Outcomes come back in batch order and a failed
        batch degrades to ``None`` answers — the same tolerance already
        applied to format drift — instead of aborting its siblings.
        """
        prov = self._prov
        cell_table = call.signature()
        cell_column = "value" if call.kind == "LLMJoin" else "v"
        mapping: dict[tuple, Optional[str]] = {}
        if self.mapping_store is not None:
            served = self.mapping_store.lookup(call.signature(), keys)
            if served is not None:
                if prov.enabled:
                    producers = self.mapping_store.call_ids(call.signature())
                for key in keys:
                    mapping[key] = served[key]
                    if served[key] is not None:
                        report.keys_generated += 1
                    if prov.enabled:
                        prov.record_cell(
                            cell_table,
                            key,
                            cell_column,
                            producers.get(key, ""),
                            null=served[key] is None,
                            tier=TIER_MAPPING_STORE,
                        )
                return mapping
        reusable: dict[tuple, str] = {}
        if self.semantic_cache is not None:
            cached = self.semantic_cache.lookup(call.question, self.client)
            if cached:
                reusable = cached
        to_generate: list[tuple] = []
        for key in keys:
            if key in reusable:
                mapping[key] = reusable[key]
                self.semantic_cache.stats.keys_reused += 1
                if prov.enabled:
                    # served by query rewriting: the producing prompt
                    # belonged to the *equivalent* question, unknown here
                    prov.record_cell(
                        cell_table, key, cell_column, "", tier=TIER_SEMANTIC
                    )
            else:
                to_generate.append(key)
        batches = batched(to_generate, self._batch_size_for(call))
        prompts = [self._map_prompt(call, batch) for batch in batches]
        outcomes = self.dispatcher.dispatch(
            self.client, prompts, labels="udf:map", deadline=self.deadline
        )
        for batch, prompt, outcome in zip(batches, prompts, outcomes):
            degraded = outcome.error is not None
            if degraded:
                answers: list[Optional[str]] = [None] * len(batch)
                report.degraded_batches += 1
                report.degraded_keys += len(batch)
                self._m_degraded_batches.inc()
                self._m_degraded_keys.inc(len(batch))
                if self.resilience is not None:
                    self.resilience.record_degraded(len(batch))
            else:
                response = outcome.response
                if response.usage.calls:
                    report.llm_calls += 1
                    report.call_sizes.append(
                        (response.usage.input_tokens, response.usage.output_tokens)
                    )
                answers = parse_map_answers(response.text, len(batch))
            cid = call_id_for(prompt) if prov.enabled else ""
            for key, answer in zip(batch, answers):
                mapping[key] = answer
                if answer is not None:
                    report.keys_generated += 1
                if prov.enabled:
                    prov.record_cell(
                        cell_table,
                        key,
                        cell_column,
                        cid,
                        null=answer is None,
                        degraded=degraded,
                    )
        if self.semantic_cache is not None:
            self.semantic_cache.store(
                call.question,
                {key: value for key, value in mapping.items() if value is not None},
            )
        if self.publish_mappings and self.mapping_store is not None:
            # only real answers are worth sharing: degraded NULLs would
            # pin other requests' keys to NULL past the fault that caused
            # them
            self.mapping_store.put(
                call.signature(),
                {k: v for k, v in mapping.items() if v is not None},
            )
        return mapping

    _MAP_RULE = (
        "Return one line per key in the format `index. answer`, "
        "with no explanation."
    )

    def _map_prompt(self, call: IngredientCall, batch: list[tuple]) -> Prompt:
        """The map prompt for one batch of keys.

        Laid out as a :class:`~repro.llm.declarative.PromptSpec` of
        task, values, demonstrations, target (question + key lines),
        rule and cue would render it — sections and lines joined by
        single newlines.  Everything above the key lines is the same for
        every batch of one ingredient, so it is built once per (frozen,
        hashable) IngredientCall and the key lines are spliced in.  The
        prompt's :class:`~repro.llm.intent.MapIntent` shares that
        ingredient's header and the caller's ``batch``.
        """
        cached = self._map_prefix_cache.get(call)
        if cached is None:
            question = call.question
            options = self._options_lines(call)
            demos = self._demo_lines(question)
            prefix = "\n".join(
                [
                    "Answer the question for each given key from the "
                    f"`{self.world.name}` database.",
                    *options,
                    *demos,
                    f"{QUESTION_MARKER} {question}",
                    MAP_KEYS_MARKER,
                ]
            )
            header = (
                MapHeader(question, len(demos))
                if _plain_header(self.world.name, question, options, demos)
                else None
            )
            cached = self._map_prefix_cache[call] = (prefix, header)
        prefix, header = cached
        lines = [prefix]
        for index, key in enumerate(batch, start=1):
            rendered = "|".join(quote_field(str(part)) for part in key)
            lines.append(f"{index}. {rendered}")
        lines.append(self._MAP_RULE)
        lines.append(ANSWER_MARKER)
        text = "\n".join(lines)
        if header is None or not plain_keys(batch):
            return Prompt(text)
        return Prompt(text, MapIntent(header, batch))

    def _options_lines(self, call: IngredientCall) -> list[str]:
        """The retained value list, when the query passes options=...

        SWAN keeps the distinct values of dropped categorical columns so
        the model selects rather than free-forms (Section 3.3); BlendSQL
        surfaces them through the LLMMap ``options`` argument.
        """
        options = dict(call.options).get("options")
        if options is None:
            return []
        if isinstance(options, str):
            values = self.world.value_lists.get(options, [options])
        elif isinstance(options, list):
            values = [str(v) for v in options]
        else:
            return []
        shown = values[:40]
        rendered = ", ".join(f"'{v}'" for v in shown)
        ellipsis = ", ..." if len(values) > len(shown) else ""
        return [f"The possible answers are [{rendered}{ellipsis}]."]

    def _demo_lines(self, question: str) -> list[str]:
        if self.selector is None or self.shots == 0:
            return []
        demos = self.selector.select(question, self.shots)
        return [
            f"{MAP_EXAMPLE_MARKER} key: {quote_field(demo.key_display)} "
            f"-> answer: {quote_field(demo.answer)}"
            for demo in demos
        ]

    def _materialize(
        self,
        occurrence: "_Occurrence",
        columns: list[str],
        mapping: dict[tuple, Optional[str]],
    ) -> str:
        """Fill an LLMJoin occurrence's temp-table slot; its name.

        The slot (table + key index) is created the first time the
        occurrence is materialized, under a name from the connection,
        and refilled ever after, so a repeated statement issues no DDL,
        leaks no tables, and always reads only the rows of the current
        execution.
        """
        # a generator keeps at most one insert chunk of rows in memory;
        # both fills stream it in fixed-size chunks
        rows = (
            key + (value,) for key, value in mapping.items() if value is not None
        )
        if occurrence.table is not None:
            self.db.refill_temp_table(occurrence.table, columns, rows)
            return occurrence.table
        name = self.db.temp_name("__llm_join")
        self.db.create_temp_table(name, columns, rows)
        # the query joins this table on its key columns
        self.db.create_index(name, columns[:-1])
        occurrence.table = name
        return name

    def _maybe_materialize_view(
        self, call: IngredientCall, mapping: dict[tuple, Optional[str]]
    ) -> None:
        """Persist a *complete* generation as a materialized view.

        Only complete mappings (covering every distinct key of the source
        table) are safe to reuse by later queries with different — or no
        — pushdown predicates; partial generations stay query-local.
        """
        if self.views is None:
            return
        columns = ", ".join(quote_identifier(c) for c in call.key_columns)
        total_keys = self.db.query_scalar(
            f"SELECT COUNT(*) FROM (SELECT DISTINCT {columns} "
            f"FROM {quote_identifier(call.source_table)})"
        )
        if len(mapping) != total_keys:
            return
        view_columns = [f"k{i}" for i in range(len(call.key_columns))] + ["v"]
        rows = [
            tuple(key) + (value,)
            for key, value in mapping.items()
            if value is not None
        ]
        self.views.materialize(self.db, call.signature(), view_columns, rows)

    # -- LLMJoin -----------------------------------------------------------------

    def _run_join(self, occurrence: "_Occurrence", report: ExecutionReport) -> str:
        """Materialize a generated table usable in FROM; its name.

        Columns: the key columns under their original names plus ``value``.
        """
        call = occurrence.call
        keys = self._fetch_keys(occurrence, report)
        mapping = self._generate_mapping(call, keys, report)
        columns = list(call.key_columns) + ["value"]
        return self._materialize(occurrence, columns, mapping)


# -- prepared statements ----------------------------------------------------------


@dataclass(eq=False)
class _Occurrence:
    """One distinct ingredient of a prepared statement, where the walk meets it.

    Ingredients with the same signature in the same SELECT (and the same
    position kind) share one generation, so an occurrence lists every
    node it replaces.  ``owner`` is the SELECT whose WHERE may be pushed
    down into the key fetch (None for LLMJoin, which reads its whole
    source table) and ``alias`` the name the source table is visible
    under there.  ``error`` is what the walk raises on reaching a
    malformed occurrence; nothing after it is prepared, because
    execution never gets that far.  The slot — ``lookup`` for LLMMap,
    ``table`` for LLMJoin — and ``key_sql`` with ``key_reusable`` are
    filled by the executor on first use.
    """

    nodes: list[ast.Ingredient]
    call: Optional[IngredientCall] = None
    owner: Optional[ast.Select] = None
    alias: str = ""
    source_alias: Optional[str] = None
    error: Optional[ReproError] = None
    key_sql: Optional[str] = None
    key_reusable: bool = True
    lookup: Optional[LookupFunction] = None
    table: Optional[str] = None

    def replacement(self, filling: Optional[str]) -> ast.Node:
        """The plain-SQL node standing in for this ingredient."""
        call = self.call
        if call.kind == "LLMQA":
            if filling is None:
                return ast.Literal.null()
            return ast.Literal.string(filling)
        if call.kind == "LLMJoin":
            return ast.TableName(filling, alias=self.source_alias)
        # CAST(lookup(alias.col0, alias.col1) AS TEXT).  The cast is
        # load-bearing: a bare function result has no affinity, so
        # lookup(...) > 5 would hold for '10', where the TEXT value it
        # stands for compares with 5 as text — and does not.
        keys = [ast.ColumnRef(column, self.alias) for column in call.key_columns]
        return ast.Cast(ast.FuncCall(filling, keys), "TEXT")


class PreparedStatement:
    """A parsed hybrid statement and everything derivable from it alone.

    Holds the tree (``cached`` entries own it; a caller's pre-parsed
    statement is only borrowed for one call and never mutated), the
    ingredient occurrences in walk order, and a small memo of rendered
    final SQL: with fixed slots the rewrite of a statement depends only
    on what its LLMQA ingredients answered, so a repeat skips both the
    tree rewrite and the render.
    """

    def __init__(self, statement: ast.Select, *, cached: bool) -> None:
        self.statement = statement
        self.cached = cached
        self.occurrences = _prepare_occurrences(statement)
        self._rendered: dict[tuple[Optional[str], ...], str] = {}

    def final_sql(self, fillings: tuple[Optional[str], ...]) -> str:
        """Plain SQLite SQL with every occurrence replaced by its filling."""
        sql = self._rendered.get(fillings)
        if sql is None:
            statement = self.statement
            if fillings:
                replacements: dict[int, ast.Node] = {}
                for occurrence, filling in zip(self.occurrences, fillings):
                    replacement = occurrence.replacement(filling)
                    for node in occurrence.nodes:
                        replacements[id(node)] = replacement
                statement = replace_ingredients(
                    statement, lambda node: replacements[id(node)]
                )
            sql = render(statement)
            if len(self._rendered) >= RENDER_MEMO_SIZE:
                self._rendered.clear()
            self._rendered[fillings] = sql
        return sql


def _prepare_occurrences(statement: ast.Select) -> list[_Occurrence]:
    """The distinct ingredient occurrences of a statement, in walk order."""
    occurrences: list[_Occurrence] = []
    scope: Optional[ast.Select] = None
    shared: dict[tuple, _Occurrence] = {}
    for node, owner, source_alias, as_source in _ingredient_occurrences(statement):
        if owner is not scope:
            # the nodes of one SELECT are contiguous: sharing is per scope
            scope, shared = owner, {}
        try:
            call = parse_ingredient_call(node)
        except IngredientError as exc:
            occurrences.append(_Occurrence([node], error=exc))
            break
        signature = (call.signature(), as_source)
        if signature in shared:
            shared[signature].nodes.append(node)
            continue
        occurrence = _Occurrence([node], call, source_alias=source_alias)
        occurrences.append(occurrence)
        if as_source and call.kind != "LLMJoin":
            occurrence.error = IngredientError(
                f"{call.kind} cannot be used as a FROM source"
            )
        elif call.kind == "LLMJoin" and not as_source:
            occurrence.error = IngredientError(
                "LLMJoin is only valid as a FROM source"
            )
        if occurrence.error is not None:
            break
        if call.kind == "LLMMap":
            occurrence.owner = owner
            occurrence.alias = (
                resolve_alias(owner, call.source_table) or call.source_table
            )
        else:
            occurrence.alias = call.source_table
        shared[signature] = occurrence
    return occurrences


def _walk_own_region(node: ast.Node) -> Iterator[ast.Node]:
    """Walk without descending into nested SELECTs."""
    yield node
    for child in node.children():
        if isinstance(child, ast.Select):
            continue
        yield from _walk_own_region(child)


def _ingredient_occurrences(
    statement: ast.Select,
) -> list[tuple[ast.Ingredient, Optional[ast.Select], Optional[str], bool]]:
    """All ingredient nodes with their owning SELECT scope.

    Returns (node, owner, source_alias, is_from_source) tuples.  The
    owner is the SELECT whose own region (select list, WHERE, GROUP BY,
    HAVING, ORDER BY — nested subqueries excluded) contains the node.
    """
    occurrences: list[
        tuple[ast.Ingredient, Optional[ast.Select], Optional[str], bool]
    ] = []
    selects = [node for node in walk(statement) if isinstance(node, ast.Select)]
    for select in selects:
        seen_sources: set[int] = set()
        for source in _iter_sources(select.from_):
            if isinstance(source, ast.IngredientSource):
                occurrences.append((source.ingredient, select, source.alias, True))
                seen_sources.add(id(source.ingredient))
        for node in _walk_own_region(select):
            if isinstance(node, ast.Ingredient) and id(node) not in seen_sources:
                occurrences.append((node, select, None, False))
    return occurrences


def _iter_sources(source: Optional[ast.TableSource]) -> Iterator[ast.TableSource]:
    if source is None:
        return
    if isinstance(source, ast.Join):
        yield from _iter_sources(source.left)
        yield from _iter_sources(source.right)
    else:
        yield source
