"""The hybrid query executor (BlendSQL-equivalent).

Execution plan for one hybrid query:

1. Parse the dialect SQL; collect every ``{{...}}`` ingredient.
2. For each **LLMMap**: find its owning SELECT scope, apply predicate
   pushdown to fetch only the key tuples that database-only predicates
   allow, batch the keys (default 5 per call, Section 5.4), prompt the
   model, and materialize the answers into a TEMP table.
3. For each **LLMQA**: one scalar call; the answer becomes a literal.
4. For each **LLMJoin**: like LLMMap, but materialized as a FROM source.
5. Rewrite the AST — map ingredients become correlated scalar subqueries
   against their TEMP tables — render plain SQLite SQL, execute.

All LLM traffic goes through a prompt-keyed cache
(:class:`~repro.llm.cache.CachingClient`), reproducing BlendSQL's reuse
semantics: identical prompts are free, semantically-equal-but-textually-
different prompts are not (Section 5.5).

With ``workers > 1`` the batches of each LLMMap/LLMJoin are dispatched
concurrently over a worker pool (:mod:`repro.llm.parallel`) — the
parallelized LLM calls the paper lists as future work.  Results are
deterministic: the cache's single-flight guarantee plus ordered dispatch
make ``workers=8`` byte-identical to ``workers=1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.errors import IngredientError, ReproError
from repro.llm.batching import (
    DEFAULT_BATCH_SIZE,
    LatencyModel,
    batched,
    parallel_makespan,
    sequential_makespan,
)
from repro.llm.cache import CachingClient, PromptCache
from repro.llm.chat import (
    ANSWER_MARKER,
    MAP_EXAMPLE_MARKER,
    MAP_KEYS_MARKER,
    QUESTION_MARKER,
    quote_field,
)
from repro.llm.client import ChatClient
from repro.llm.declarative import PromptSpec
from repro.llm.parallel import ParallelDispatcher
from repro.llm.resilience import ResilienceReport
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import TIER_MAPPING_STORE, TIER_SEMANTIC, call_id_for
from repro.obs.trace import NULL_SPAN
from repro.sqlparser import ast, parse, render
from repro.sqlparser.render import quote_identifier
from repro.sqlparser.rewrite import replace_ingredients, walk
from repro.sqlengine.database import Database
from repro.sqlengine.results import ResultSet
from repro.swan.base import World
from repro.udf.fewshot import DemonstrationPool, FewShotSelector
from repro.udf.ingredients import IngredientCall, parse_ingredient_call
from repro.udf.pushdown import pushable_conjuncts, resolve_alias
from repro.udf.semantic_cache import SemanticCache
from repro.udf.views import MaterializedViewStore

if TYPE_CHECKING:  # no runtime import: repro.plan imports from this module
    from repro.plan.store import MappingStore

_ANSWER_LINE_RE = re.compile(r"^\s*(\d+)\s*[.):]\s*(.*?)\s*$")

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
        self._map_prefix_cache: dict[IngredientCall, str] = {}
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
        self._temp_counter = 0

    # -- public API --------------------------------------------------------------

    def execute(self, hybrid_sql: str) -> ResultSet:
        """Execute a hybrid query and return its result set."""
        result, _ = self.execute_with_report(hybrid_sql)
        return result

    def execute_with_report(
        self, hybrid_sql: Union[str, ast.Select]
    ) -> tuple[ResultSet, ExecutionReport]:
        """Execute and also return pushdown/call diagnostics.

        ``hybrid_sql`` may be the statement :func:`parse` returned for
        the query text (a caller that already planned the query hands
        over its tree); execution never mutates it.
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
            statement = _parsed(hybrid_sql)
        replacements = self._plan_ingredients(statement, report)
        with (tel.tracer.span("sql:rewrite") if tel.enabled else NULL_SPAN):
            if replacements:
                statement = replace_ingredients(
                    statement, lambda node: replacements[id(node)]
                )
            final_sql = render(statement)
        report.rewritten_sql = final_sql
        with (tel.tracer.span("sql:execute") if tel.enabled else NULL_SPAN):
            result = self.db.query(final_sql)
        return result, report

    # -- planning ----------------------------------------------------------------

    def _plan_ingredients(
        self, statement: ast.Select, report: ExecutionReport
    ) -> dict[int, ast.Node]:
        """Materialize every ingredient; map node id → replacement node."""
        replacements: dict[int, ast.Node] = {}
        shared: dict[tuple, ast.Node] = {}
        for node, owner, source_alias, as_source in _ingredient_occurrences(statement):
            call = parse_ingredient_call(node)
            signature = (call.signature(), id(owner), as_source)
            if signature in shared:
                replacements[id(node)] = shared[signature]
                continue
            if as_source and call.kind != "LLMJoin":
                raise IngredientError(
                    f"{call.kind} cannot be used as a FROM source"
                )
            tel = self._tel
            with (
                tel.tracer.span(
                    "udf:ingredient", kind=call.kind, question=call.question
                )
                if tel.enabled
                else NULL_SPAN
            ):
                if call.kind == "LLMQA":
                    replacement: ast.Node = self._run_qa(call)
                elif call.kind == "LLMMap":
                    replacement = self._run_map(call, owner, report)
                else:  # LLMJoin
                    if not as_source:
                        raise IngredientError(
                            "LLMJoin is only valid as a FROM source"
                        )
                    replacement = self._run_join(call, source_alias, report)
            shared[signature] = replacement
            replacements[id(node)] = replacement
        return replacements

    def _batch_size_for(self, call: IngredientCall) -> int:
        """The batch size for one ingredient: policy when set, else fixed."""
        if self.batch_policy is None:
            return self.batch_size
        return self.batch_policy.batch_size(call)

    # -- call planning (dry run) --------------------------------------------------
    #
    # Both methods replay the ingredient walk of ``_plan_ingredients``
    # without issuing any LLM call, for the run-level CallPlanner
    # (repro.plan).  They assume the executor-level caches that consult
    # the model themselves (semantic cache) are not attached — the
    # harness runners never attach them — and mirror everything else:
    # scope resolution, signature sharing, pushdown, batching, and the
    # stop-at-first-error prefix semantics of real execution.

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
            statement = parse(hybrid_sql)
        except ReproError:
            return prompts
        shared: set[tuple] = set()
        try:
            for occurrence in _ingredient_occurrences(statement):
                node, owner, source_alias, as_source = occurrence
                call = parse_ingredient_call(node)
                signature = (call.signature(), id(owner), as_source)
                if signature in shared:
                    continue
                shared.add(signature)
                if as_source and call.kind != "LLMJoin":
                    return prompts
                if call.kind == "LLMQA":
                    prompts.append((self._qa_prompt(call.question), "udf:qa"))
                    continue
                if call.kind == "LLMJoin" and not as_source:
                    return prompts
                if (
                    call.kind == "LLMMap"
                    and self.views is not None
                    and self.views.table_for(call.signature()) is not None
                ):
                    continue
                keys = self._plan_keys(call, owner, report)
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
            statement = _parsed(hybrid_sql)
        except ReproError:
            return map_requests, qa_prompts
        shared: set[tuple] = set()
        try:
            for occurrence in _ingredient_occurrences(statement):
                node, owner, source_alias, as_source = occurrence
                call = parse_ingredient_call(node)
                signature = (call.signature(), id(owner), as_source)
                if signature in shared:
                    continue
                shared.add(signature)
                if as_source and call.kind != "LLMJoin":
                    return map_requests, qa_prompts
                if call.kind == "LLMQA":
                    qa_prompts.append(self._qa_prompt(call.question))
                    continue
                if call.kind == "LLMJoin" and not as_source:
                    return map_requests, qa_prompts
                keys = self._plan_keys(call, owner, report)
                map_requests.append((call, keys))
        except ReproError:
            pass
        return map_requests, qa_prompts

    def _plan_keys(
        self,
        call: IngredientCall,
        owner: Optional[ast.Select],
        report: ExecutionReport,
    ) -> list[tuple]:
        """Key fetching exactly as execution performs it, per ingredient kind."""
        if call.kind == "LLMJoin":
            return self._fetch_keys(call, None, call.source_table, report)
        alias = resolve_alias(owner, call.source_table) or call.source_table
        return self._fetch_keys(call, owner, alias, report)

    # -- LLMQA -------------------------------------------------------------------

    def _run_qa(self, call: IngredientCall) -> ast.Expr:
        tel = self._tel
        if self.deadline is not None and self.deadline.expired:
            # same degradation contract as a skipped mapping batch: the
            # scalar becomes NULL instead of blocking past the budget
            if self.resilience is not None:
                self.resilience.record_degraded(1)
            return ast.Literal.null()
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
        value = answer[-1].strip() if answer else ""
        return ast.Literal.string(value)

    def _qa_prompt(self, question: str) -> str:
        spec = PromptSpec()
        spec.add_task(
            "Answer the question with a single short value and no explanation."
        )
        spec.add_schema(f"Database: {self.world.name}")
        for line in self._demo_lines(question):
            spec.add_demonstration(line)
        spec.add_target(f"{QUESTION_MARKER} {question}")
        spec.add_cue(ANSWER_MARKER)
        return spec.render()

    # -- LLMMap ------------------------------------------------------------------

    def _run_map(
        self,
        call: IngredientCall,
        owner: Optional[ast.Select],
        report: ExecutionReport,
    ) -> ast.Expr:
        alias = resolve_alias(owner, call.source_table) or call.source_table
        view_table = (
            self.views.table_for(call.signature()) if self.views is not None else None
        )
        tel = self._tel
        if view_table is not None:
            temp_name = view_table  # read the materialized view, no LLM calls
        else:
            with (
                tel.tracer.span("udf:fetch_keys", pushdown=self.pushdown)
                if tel.enabled
                else NULL_SPAN
            ) as span:
                keys = self._fetch_keys(call, owner, alias, report)
                span.set("keys", len(keys))
            mapping = self._generate_mapping(call, keys, report)
            with (
                tel.tracer.span("udf:materialize") if tel.enabled else NULL_SPAN
            ):
                temp_name = self._materialize_mapping(call, mapping)
                self._maybe_materialize_view(call, mapping)
        # (SELECT v FROM temp WHERE k0 = alias.col0 AND k1 = alias.col1)
        where: Optional[ast.Expr] = None
        for index, column in enumerate(call.key_columns):
            comparison = ast.BinaryOp(
                "=",
                ast.ColumnRef(f"k{index}"),
                ast.ColumnRef(column, alias),
            )
            where = comparison if where is None else ast.BinaryOp("AND", where, comparison)
        subquery = ast.Select(
            items=[ast.SelectItem(ast.ColumnRef("v"))],
            from_=ast.TableName(temp_name),
            where=where,
        )
        return ast.ScalarSubquery(subquery)

    def _fetch_keys(
        self,
        call: IngredientCall,
        owner: Optional[ast.Select],
        alias: str,
        report: ExecutionReport,
    ) -> list[tuple]:
        """Distinct key tuples, after predicate pushdown when enabled."""
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
        if self.pushdown and owner is not None:
            source_columns = set(self.db.table_columns(call.source_table))
            conjuncts = pushable_conjuncts(owner, alias, source_columns)
            if conjuncts:
                rendered = " AND ".join(f"({_render_expr(c)})" for c in conjuncts)
                sql += f" WHERE {rendered}"
        # bulk fetch: no ResultSet bookkeeping for rows only ever str()-ed
        keys = [tuple(map(str, row)) for row in self.db.query_rows(sql)]
        report.keys_after_pushdown[call.question] = len(keys)
        return keys

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
                answers = _parse_map_answers(response.text, len(batch))
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

    def _map_prompt(self, call: IngredientCall, batch: list[tuple]) -> str:
        """The map prompt for one batch of keys.

        Laid out as a :class:`~repro.llm.declarative.PromptSpec` of
        task, values, demonstrations, target (question + key lines),
        rule and cue would render it — sections and lines joined by
        single newlines.  Everything above the key lines is the same for
        every batch of one ingredient, so it is built once per (frozen,
        hashable) IngredientCall and the key lines are spliced in.
        """
        prefix = self._map_prefix_cache.get(call)
        if prefix is None:
            question = call.question
            prefix = "\n".join(
                [
                    "Answer the question for each given key from the "
                    f"`{self.world.name}` database.",
                    *self._options_lines(call),
                    *self._demo_lines(question),
                    f"{QUESTION_MARKER} {question}",
                    MAP_KEYS_MARKER,
                ]
            )
            self._map_prefix_cache[call] = prefix
        lines = [prefix]
        for index, key in enumerate(batch, start=1):
            rendered = "|".join(quote_field(str(part)) for part in key)
            lines.append(f"{index}. {rendered}")
        lines.append(self._MAP_RULE)
        lines.append(ANSWER_MARKER)
        return "\n".join(lines)

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

    def _materialize_mapping(
        self, call: IngredientCall, mapping: dict[tuple, Optional[str]]
    ) -> str:
        temp_name = f"__llm_ing_{self._temp_counter}"
        self._temp_counter += 1
        columns = [f"k{i}" for i in range(len(call.key_columns))] + ["v"]
        # a generator keeps at most one insert chunk of rows in memory;
        # create_temp_table streams it in fixed-size chunks
        rows = (
            key + (value,) for key, value in mapping.items() if value is not None
        )
        self.db.create_temp_table(temp_name, columns, rows)
        # the rewrite probes this table once per outer row via a
        # correlated scalar subquery — index the key columns so each
        # probe is a lookup, not a scan
        self.db.create_index(temp_name, columns[:-1])
        return temp_name

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

    def _run_join(
        self,
        call: IngredientCall,
        alias: Optional[str],
        report: ExecutionReport,
    ) -> ast.TableSource:
        """Materialize a generated table usable in FROM.

        Columns: the key columns under their original names plus ``value``.
        """
        keys = self._fetch_keys(call, None, call.source_table, report)
        mapping = self._generate_mapping(call, keys, report)
        temp_name = f"__llm_ing_{self._temp_counter}"
        self._temp_counter += 1
        columns = list(call.key_columns) + ["value"]
        rows = (
            key + (value,) for key, value in mapping.items() if value is not None
        )
        self.db.create_temp_table(temp_name, columns, rows)
        self.db.create_index(temp_name, columns[:-1])
        return ast.TableName(temp_name, alias=alias)


# -- occurrence discovery ---------------------------------------------------------


def _parsed(hybrid_sql: Union[str, ast.Select]) -> ast.Select:
    """The statement for query text, or the caller's already parsed one."""
    if isinstance(hybrid_sql, ast.Select):
        return hybrid_sql
    return parse(hybrid_sql)


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


def _parse_map_answers(completion: str, expected: int) -> list[Optional[str]]:
    """Parse `index. answer` lines, tolerating gaps and noise."""
    answers: list[Optional[str]] = [None] * expected
    for line in completion.splitlines():
        match = _ANSWER_LINE_RE.match(line)
        if match is None:
            continue
        index = int(match.group(1)) - 1
        if 0 <= index < expected:
            value = match.group(2).strip()
            answers[index] = value if value else None
    return answers


def _render_expr(expr: ast.Expr) -> str:
    from repro.sqlparser.render import render_expression

    return render_expression(expr)
