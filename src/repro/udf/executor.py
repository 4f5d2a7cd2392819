"""The hybrid query executor (BlendSQL-equivalent), in three stages.

1. :meth:`~HybridQueryExecutor.prepare` parses the dialect SQL — once
   per distinct text, see :class:`PreparedStatement` — and walks its
   ``{{...}}`` ingredients: an **LLMMap** fetches the key tuples its
   database-only predicates allow (predicate pushdown, memoized per
   connection by :meth:`~repro.sqlengine.database.Database.fetch_keys`),
   an **LLMJoin** its source table's keys, an **LLMQA** renders its
   prompt.  The immutable :class:`QueryPlan` lists that LLM work.
2. :meth:`~HybridQueryExecutor.generate` pays for it — map keys in
   batches (default 5 per call, Section 5.4), one call per LLMQA — and
   is the one place the model and the mapping store are consulted.
   Every call it makes (map batches, QA prompts, the store's rewrite
   equivalence checks) goes through the one dispatcher under the
   caller's deadline, degrades to NULL on failure and is charged to the
   :class:`~repro.pipeline.ExecutionReport`, so the report counts every
   paid call of the query.
3. :meth:`~HybridQueryExecutor.run` binds each LLMMap mapping to a
   lookup function on the connection, fills each LLMJoin's TEMP table,
   rewrites the AST (``CAST(lookup(keys) AS TEXT)`` for maps, literals
   for QA), renders plain SQLite SQL, executes and unbinds.  It fetches
   no keys and consults no store.

``execute_with_report`` is the three in a row; the call planner
(:mod:`repro.plan`) and the serving layer drive them one by one, paying
for the work their own way and handing what they hold to ``generate``.

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
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Union

from repro.errors import IngredientError, ReproError
from repro.llm.batching import DEFAULT_BATCH_SIZE, batched
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
from repro.llm.resilience import Deadline, ResilienceReport
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import TIER_MAPPING_STORE, TIER_SEMANTIC, call_id_for
from repro.obs.trace import NULL_SPAN
from repro.pipeline import ExecutionReport, Fillings, Work
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
from repro.udf.store import MappingStore

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
        workers: int = 1,
        resilience: Optional[ResilienceReport] = None,
        telemetry: Optional[Telemetry] = None,
        batch_policy: Optional[object] = None,
        mapping_store: Optional[MappingStore] = None,
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
        #: the provenance recorder every call and cell of this executor
        #: reports to (a pairs-mode planner marks its dispatches here too)
        self.provenance = provenance if provenance is not None else NULL_PROVENANCE
        self.dispatcher = ParallelDispatcher(
            workers, telemetry=self._tel, provenance=self.provenance
        )
        self.cache = cache if cache is not None else PromptCache()
        self.client = CachingClient(
            client, self.cache, telemetry=self._tel, provenance=self.provenance
        )
        self._m_degraded_batches = self._tel.metrics.counter(
            "pipeline.degraded_batches"
        )
        self._m_degraded_keys = self._tel.metrics.counter("pipeline.degraded_keys")
        self.selector = FewShotSelector(_demo_pool(world)) if shots > 0 else None
        self.resilience = resilience
        #: any object with ``batch_size(call) -> int`` (repro.plan.policy);
        #: None keeps the fixed ``batch_size`` — BlendSQL's behaviour.
        self.batch_policy = batch_policy
        #: :meth:`generate` answers fully-covered ingredients from it
        #: with zero LLM calls, and publishes into it what it generates.
        self.mapping_store = mapping_store
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
        """Prepare, generate and run; the result and its diagnostics.

        ``hybrid_sql`` may be an already parsed statement; execution
        never mutates it (and, not owning it, prepares it for this call
        only).
        """
        tel = self._tel
        with (tel.tracer.span("udf:query") if tel.enabled else NULL_SPAN) as span:
            plan = self.prepare(hybrid_sql)
            result, report = self.run(plan, self.generate(plan))
            span.set("llm_calls", report.llm_calls)
            span.set("keys_generated", report.keys_generated)
        return result, report

    def prepare(self, hybrid_sql: Union[str, ast.Select]) -> "QueryPlan":
        """Stage one: the statement and, per occurrence in walk order, its work.

        The walk stops at the first malformed occurrence or failing key
        fetch (an unparseable text at once); the plan keeps that error
        for :meth:`generate` to raise once the calls before it are paid,
        the prefix of work a failing query costs.  No LLM is called.
        """
        tel = self._tel
        try:
            with (tel.tracer.span("sql:parse") if tel.enabled else NULL_SPAN):
                prepared = self._statement(hybrid_sql)
        except ReproError as exc:
            return QueryPlan(None, (), exc)
        steps: list[tuple[_Occurrence, Work]] = []
        error: Optional[ReproError] = None
        for occurrence in prepared.occurrences:
            error = occurrence.error
            if error is not None:
                break
            call = occurrence.call
            if call.kind == "LLMQA":
                work = Work(call, (), 1, self._qa_prompt(call.question), "udf:qa")
            else:
                try:
                    keys = self._fetch_keys(occurrence)
                except ReproError as exc:
                    error = exc
                    break
                policy = self.batch_policy
                chunk = self.batch_size if policy is None else policy.batch_size(call)
                work = Work(call, keys, chunk, label="udf:map")
            steps.append((occurrence, work))
        return QueryPlan(prepared, tuple(steps), error)

    def generate(
        self,
        plan: "QueryPlan",
        *,
        deadline: Optional[Deadline] = None,
        known: Optional[dict[tuple, dict[tuple, Optional[str]]]] = None,
    ) -> Fillings:
        """Stage two: pay for a plan's work; every occurrence's answer.

        ``known`` maps a signature to answers the caller holds: an
        occurrence it fully covers costs no call.  Without it, the
        mapping store (if any) plays that part and receives what is
        generated.  Map batches, QA prompts and rewrite checks are all
        paid through :meth:`pay`: past ``deadline`` or on a failed
        call, a batch's keys and a QA answer degrade to NULL (and are
        counted as degraded) instead of aborting the query.
        """
        tel = self._tel
        report = ExecutionReport()
        answers: list = []
        for occurrence, work in plan.steps:
            call = occurrence.call
            span = NULL_SPAN
            if tel.enabled:
                span = tel.tracer.span(
                    "udf:ingredient", kind=call.kind, question=call.question
                )
            with span:
                if work.prompt is None:
                    answer = self._generate_mapping(work, report, deadline, known)
                else:
                    answer = self._answer_prompt(work, report, deadline)
            answers.append(answer)
        if plan.error is not None:
            # a fresh traceback each time: the plan keeps the exception
            # object, which would otherwise grow a frame per raise
            raise plan.error.with_traceback(None)
        return Fillings(tuple(answers), report)

    def run(
        self, plan: "QueryPlan", fillings: Fillings
    ) -> tuple[ResultSet, ExecutionReport]:
        """Stage three: bind the answers to the slots, render, execute."""
        tel = self._tel
        prepared = plan.prepared
        try:
            slots: list[Optional[str]] = []
            for (occurrence, _), answer in zip(plan.steps, fillings.answers):
                kind = occurrence.call.kind
                if kind == "LLMJoin":
                    answer = self._materialize(occurrence, answer)
                elif kind == "LLMMap":
                    # acquired on first use and kept: a repeat writes nothing
                    if occurrence.lookup is None:
                        occurrence.lookup = self.db.acquire_lookup(
                            len(occurrence.call.key_columns)
                        )
                    occurrence.lookup.bind(answer)
                    answer = occurrence.lookup.name
                slots.append(answer)
            with (tel.tracer.span("sql:rewrite") if tel.enabled else NULL_SPAN):
                sql = prepared.final_sql(tuple(slots))
            with (tel.tracer.span("sql:execute") if tel.enabled else NULL_SPAN):
                result = self.db.query(sql)
        finally:
            # a bound mapping outliving its query would pin every
            # generated value until the statement's next execution
            if prepared.cached:
                for occurrence in prepared.occurrences:
                    if occurrence.lookup is not None:
                        occurrence.lookup.unbind()
            else:
                self._release_slots(prepared)
        return result, replace(fillings.report, rewritten_sql=sql)

    def plan_calls(self, hybrid_sql: str) -> list[tuple[str, str]]:
        """The (prompt, label) sequence executing this query would issue,
        up to any failure, when no store answers."""
        calls: list[tuple[str, str]] = []
        for work in self.prepare(hybrid_sql).work():
            if work.prompt is not None:
                calls.append((work.prompt, work.label))
                continue
            for batch in batched(work.keys, work.chunk_size):
                calls.append((self.map_prompt(work.call, batch), work.label))
        return calls

    # -- prepared statements -----------------------------------------------------

    def _statement(self, hybrid_sql: Union[str, ast.Select]) -> "PreparedStatement":
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
            evicted.cached = False  # a plan holding it releases its slots
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

    # -- paying for calls ------------------------------------------------------

    def pay(
        self,
        prompts: Sequence[Prompt],
        labels: Union[str, Sequence[str]],
        report: ExecutionReport,
        deadline: Optional[Deadline],
    ) -> list[Optional[str]]:
        """Each prompt's completion text, or None where its call failed.

        The one way the executor (and a :class:`~repro.plan.CallPlanner`
        pre-paying for it) reaches the model: the dispatcher
        (provenance, spans, token metrics, the deadline) and a charge
        to ``report`` for every paid call.  Only degradable failures
        (transient errors, spent retry budgets, expired deadlines) come
        back as None; any other :class:`~repro.errors.LLMError` is a
        broken client and aborts the query, as it does in HQDL.
        """
        outcomes = self.dispatcher.dispatch(
            self.client, prompts, labels=labels, capture_errors="transient",
            deadline=deadline,
        )
        texts: list[Optional[str]] = []
        for outcome in outcomes:
            if outcome.error is not None:
                texts.append(None)
                continue
            report.charge(outcome.response.usage)
            texts.append(outcome.response.text)
        return texts

    def _degrade(self, report: ExecutionReport, keys: int) -> None:
        """Count one failed call whose ``keys`` answers became NULL."""
        report.degraded_batches += 1
        report.degraded_keys += keys
        self._m_degraded_batches.inc()
        self._m_degraded_keys.inc(keys)
        if self.resilience is not None:
            self.resilience.record_degraded(keys)

    # -- LLMQA -------------------------------------------------------------------

    def _answer_prompt(
        self, work: Work, report: ExecutionReport, deadline: Optional[Deadline]
    ) -> Optional[str]:
        """The scalar answer that replaces an LLMQA (None renders NULL)."""
        (text,) = self.pay([work.prompt], work.label, report, deadline)
        if text is None:
            self._degrade(report, 1)
            return None
        answer = text.strip().splitlines()
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

    # -- LLMMap / LLMJoin --------------------------------------------------------

    def _fetch_keys(self, occurrence: "_Occurrence") -> list[tuple]:
        """Distinct key tuples, after predicate pushdown when enabled.

        Served by the connection's key memo, shared with every executor,
        dry run and request on it, unless a pushed predicate calls a
        function, which might select other keys from the same rows.
        """
        sql = self._key_sql(occurrence)
        tel = self._tel
        with (
            tel.tracer.span("udf:fetch_keys", pushdown=self.pushdown)
            if tel.enabled
            else NULL_SPAN
        ) as span:
            keys = self.db.fetch_keys(sql, reuse=occurrence.key_reusable)
            span.set("keys", len(keys))
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
        work: Work,
        report: ExecutionReport,
        deadline: Optional[Deadline],
        known: Optional[dict],
    ) -> dict[tuple, Optional[str]]:
        """Batched LLM calls answering the question for every key.

        Answers already held — by ``known`` when the caller passes it,
        else by the shared mapping store — are served per key, and only
        the keys they do not cover are chunked and paid for.  A store
        built with ``rewrite=True`` first reuses, per key, what it holds
        for a semantically equivalent question (query rewriting,
        Section 4.3).  The mapping comes back in key order whatever
        served it, as a run with nothing stored would build it.

        All batches of one ingredient go through the dispatcher at once,
        so with ``workers > 1`` they run concurrently (Section 4.3 / 6
        future work).  Outcomes come back in batch order and a failed
        batch degrades to ``None`` answers — the same tolerance already
        applied to format drift — instead of aborting its siblings.
        """
        call, keys = work.call, work.keys
        signature = call.signature()
        report.keys_after_pushdown[call.question] = len(keys)
        prov = self.provenance
        cell_table = signature
        cell_column = "value" if call.kind == "LLMJoin" else "v"
        store = self.mapping_store if known is None else None
        if known is not None:
            held = known.get(signature, {})
            served = {key: held[key] for key in keys if key in held}
        elif store is not None:
            served = store.lookup(signature, keys)
        else:
            served = {}
        if served:
            producers = (
                store.call_ids(signature)
                if prov.enabled and store is not None
                else {}
            )
            for key, value in served.items():
                if value is not None:
                    report.keys_generated += 1
                if prov.enabled:
                    prov.record_cell(
                        cell_table,
                        key,
                        cell_column,
                        producers.get(key, ""),
                        null=value is None,
                        tier=TIER_MAPPING_STORE,
                    )
        if len(served) == len(keys):
            return served
        missing = [key for key in keys if key not in served]
        reusable = {}
        if store is not None:
            reusable = store.rewrite_lookup(
                signature,
                missing,
                lambda prompt, label: self.pay([prompt], label, report, deadline)[0],
            )
        found = dict(served)
        to_generate: list[tuple] = []
        for key in missing:
            if key in reusable:
                found[key] = reusable[key]
                if prov.enabled:
                    # served by query rewriting: the producing prompt
                    # belonged to the *equivalent* question, unknown here
                    prov.record_cell(
                        cell_table, key, cell_column, "", tier=TIER_SEMANTIC
                    )
            else:
                to_generate.append(key)
        batches = batched(to_generate, work.chunk_size)
        prompts = [self.map_prompt(call, batch) for batch in batches]
        texts = self.pay(prompts, work.label, report, deadline)
        for batch, prompt, text in zip(batches, prompts, texts):
            degraded = text is None
            if degraded:
                answers: list[Optional[str]] = [None] * len(batch)
                self._degrade(report, len(batch))
            else:
                answers = parse_map_answers(text, len(batch))
            cid = call_id_for(prompt) if prov.enabled else ""
            for key, answer in zip(batch, answers):
                found[key] = answer
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
        tel = self._tel
        with (tel.tracer.span("udf:materialize") if tel.enabled else NULL_SPAN):
            if store is not None:
                # only real answers are worth sharing: degraded NULLs would
                # pin other requests' keys to NULL past the fault that
                # caused them
                store.put(
                    signature,
                    {
                        key: found[key]
                        for key in missing
                        if found[key] is not None
                    },
                )
        return {key: found[key] for key in keys}

    _MAP_RULE = (
        "Return one line per key in the format `index. answer`, "
        "with no explanation."
    )

    def map_prompt(self, call: IngredientCall, batch: Sequence[tuple]) -> Prompt:
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
        if self.selector is None:
            return []
        demos = self.selector.select(question, self.shots)
        return [
            f"{MAP_EXAMPLE_MARKER} key: {quote_field(demo.key_display)} "
            f"-> answer: {quote_field(demo.answer)}"
            for demo in demos
        ]

    def _materialize(
        self, occurrence: "_Occurrence", mapping: dict[tuple, Optional[str]]
    ) -> str:
        """Fill an LLMJoin occurrence's temp-table slot; its name.

        Columns: the key columns under their original names plus
        ``value``.  The slot (table + key index) is created the first
        time the occurrence is materialized, under a name from the
        connection, and refilled ever after, so a repeated statement
        issues no DDL, leaks no tables, and always reads only the rows of
        the current execution.
        """
        columns = list(occurrence.call.key_columns) + ["value"]
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
    tree rewrite and the render.  An evicted entry stops being
    ``cached``, so a plan still holding it releases what its run acquires.
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


@dataclass(frozen=True)
class QueryPlan:
    """What one query needs, fixed at prepare time: each occurrence the
    walk reached with its work, and the error that stopped the walk
    (``prepared`` is None only for an unparseable text)."""

    prepared: Optional[PreparedStatement]
    steps: tuple[tuple[_Occurrence, Work], ...]
    error: Optional[ReproError] = None

    def work(self) -> tuple[Work, ...]:
        """The LLM work of this query, in walk order."""
        return tuple(work for _, work in self.steps)


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
