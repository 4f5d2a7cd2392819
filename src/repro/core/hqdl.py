"""The HQDL pipeline orchestrator (paper Section 4.1).

Flow, per database:

1. **Schema expansion** — the curated schema gains the expansion tables
   SWAN specifies (missing columns/tables plus meaningful keys).
2. **Data generation** — one LLM row-completion call per key, with the
   configured number of static few-shot demonstrations.
3. **Data extraction** — completions parsed via the csv module; malformed
   rows are dropped and counted.
4. **Materialization** — extracted rows inserted into the expansion
   tables of a (copy of the) curated database.
5. **Query execution** — each question's ``hqdl_sql`` runs as plain SQL.

A key operational property (Section 5.5): generation happens *once per
database*, and every question over that database reuses the materialized
tables — which is why HQDL's token bill is a fraction of HQ UDFs'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.extraction import extract_row
from repro.core.materialize import materialize_expansion
from repro.core.prompts import RowPromptBuilder
from repro.errors import ExtractionError, ReproError
from repro.llm.batching import LatencyModel
from repro.llm.client import ChatClient
from repro.llm.tokenizer import count_tokens
from repro.llm.parallel import DispatchOutcome, ParallelDispatcher
from repro.llm.resilience import Deadline, ResilienceReport
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import call_id_for
from repro.obs.trace import NULL_SPAN
from repro.sqlengine.database import Database
from repro.sqlengine.results import ResultSet
from repro.swan.base import Question, World
from repro.swan.build import build_curated_database


@dataclass
class TableGeneration:
    """Everything generated for one expansion table.

    ``rows`` maps key → list of generated values (expansion column order),
    or None when the completion was malformed beyond extraction.
    """

    expansion_name: str
    rows: dict[tuple, Optional[list[str]]] = field(default_factory=dict)
    malformed: int = 0
    calls: int = 0
    #: rows whose LLM call failed outright (transient error that survived
    #: the retry layer) and degraded to NULLs, distinct from ``malformed``
    #: (the call returned, but the completion resisted extraction).
    degraded: int = 0

    def generated_cells(self) -> int:
        return sum(len(v) for v in self.rows.values() if v is not None)


@dataclass
class GenerationResult:
    """Per-expansion generations for one (database, model, shots) config."""

    database: str
    shots: int
    tables: dict[str, TableGeneration] = field(default_factory=dict)

    def total_malformed(self) -> int:
        return sum(t.malformed for t in self.tables.values())

    def total_calls(self) -> int:
        return sum(t.calls for t in self.tables.values())

    def total_degraded(self) -> int:
        return sum(t.degraded for t in self.tables.values())


class HQDL:
    """Schema-expansion hybrid querying for one world."""

    def __init__(
        self,
        world: World,
        client: ChatClient,
        *,
        shots: int = 0,
        context_rows: int = 0,
        workers: int = 1,
        call_order: str = "collection",
        resilience: Optional[ResilienceReport] = None,
        telemetry: Optional[Telemetry] = None,
        provenance=None,
    ) -> None:
        if call_order not in ("collection", "lpt"):
            raise ReproError(
                f"call_order must be 'collection' or 'lpt', got {call_order!r}"
            )
        self.world = world
        self.client = client
        self.shots = shots
        self.context_rows = context_rows
        self.workers = workers
        #: 'collection' dispatches row calls in table/key order; 'lpt'
        #: dispatches longest-prompt-first so a parallel pool doesn't end
        #: on one big straggler.  Results are identical either way —
        #: outcomes are re-assembled in key order.
        self.call_order = call_order
        self.resilience = resilience
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        self.dispatcher = ParallelDispatcher(
            workers, telemetry=self._tel, provenance=self._prov
        )
        self._m_degraded_rows = self._tel.metrics.counter("pipeline.degraded_rows")
        self._m_malformed = self._tel.metrics.counter("pipeline.malformed_rows")
        self._retriever = None
        if context_rows > 0:
            # built lazily-but-eagerly here: one index serves every table
            from repro.retrieval.index import RowContextRetriever

            self._retriever = RowContextRetriever(world)

    # -- generation ------------------------------------------------------------

    def _prepare_table(
        self, expansion_name: str
    ) -> tuple[RowPromptBuilder, list[tuple], list[str]]:
        """The prompt builder, keys, and prompts for one expansion table."""
        expansion = self.world.expansion(expansion_name)
        context_provider = None
        if self._retriever is not None:
            context_provider = self._retriever.context_provider(self.context_rows)
        builder = RowPromptBuilder(
            self.world,
            expansion,
            shots=self.shots,
            context_provider=context_provider,
        )
        keys = list(self.world.keys_for(expansion_name))
        prompts = [builder.build(key) for key in keys]
        return builder, keys, prompts

    def plan_calls(self) -> list[tuple[str, str]]:
        """Every (prompt, label) generation would dispatch, without calling.

        HQDL already generates once per database, so there is nothing to
        dedup — planning here feeds benchmarking (call counts, virtual
        makespans) and cache pre-warming.
        """
        calls: list[tuple[str, str]] = []
        for expansion in self.world.expansions:
            _, _, prompts = self._prepare_table(expansion.name)
            calls.extend((p, f"hqdl:{expansion.name}") for p in prompts)
        return calls

    def _dispatch_ordered(
        self, prompts: list[str], labels, deadline: Optional[Deadline] = None
    ) -> list[DispatchOutcome]:
        """Dispatch, longest-prompt-first when ``call_order='lpt'``.

        Outcomes always come back aligned to the *input* prompt order,
        so assembly is unaffected by the dispatch permutation.
        """
        if self.call_order != "lpt" or len(prompts) <= 1:
            return self.dispatcher.dispatch(
                self.client, prompts, labels=labels, capture_errors="transient",
                deadline=deadline,
            )
        model = LatencyModel()
        estimates = [
            model.base_seconds + model.per_input_token * count_tokens(p)
            for p in prompts
        ]
        order = sorted(range(len(prompts)), key=lambda i: (-estimates[i], i))
        permuted_labels = (
            labels if isinstance(labels, str) else [labels[i] for i in order]
        )
        permuted = self.dispatcher.dispatch(
            self.client,
            [prompts[i] for i in order],
            labels=permuted_labels,
            capture_errors="transient",
            deadline=deadline,
        )
        outcomes: list[Optional[DispatchOutcome]] = [None] * len(prompts)
        for position, index in enumerate(order):
            outcomes[index] = permuted[position]
        return outcomes

    def _assemble_table(
        self,
        expansion_name: str,
        builder: RowPromptBuilder,
        keys: list[tuple],
        outcomes: list[DispatchOutcome],
        prompts: Optional[list[str]] = None,
        values: Optional[dict[str, str]] = None,
    ) -> TableGeneration:
        """Extract dispatched completions into a TableGeneration, in key order.

        A row whose call failed outright (a degradable dispatch outcome)
        yields NULLs — the materialized table keeps the key but loses the
        generated cells — and is counted as ``degraded``, mirroring how a
        production pipeline survives a partial provider outage.

        ``values`` maps each generated value to its first occurrence and
        is shared by every table of one generation, so equal cells are one
        string object: a generation repeats a few thousand distinct values
        across tens of thousands of cells.
        """
        if values is None:
            values = {}
        generation = TableGeneration(expansion_name=expansion_name)
        expansion = self.world.expansion(expansion_name)
        key_width = len(expansion.key_columns)
        prov = self._prov
        value_columns = (
            expansion.generated_column_names() if prov.enabled else []
        )
        for index, (key, outcome) in enumerate(zip(keys, outcomes)):
            generation.calls += 1
            cid = (
                call_id_for(prompts[index])
                if prov.enabled and prompts is not None
                else ""
            )
            if outcome.error is not None:
                generation.rows[key] = None
                generation.degraded += 1
                self._m_degraded_rows.inc()
                if self.resilience is not None:
                    self.resilience.record_degraded(1)
                if prov.enabled:
                    for column in value_columns:
                        prov.record_cell(
                            expansion_name, key, column, cid,
                            null=True, degraded=True,
                        )
                continue
            try:
                fields = extract_row(
                    outcome.response.text, builder.expected_field_count()
                )
            except ExtractionError:
                generation.rows[key] = None
                generation.malformed += 1
                self._m_malformed.inc()
                if prov.enabled:
                    for column in value_columns:
                        prov.record_cell(
                            expansion_name, key, column, cid, null=True
                        )
                continue
            generation.rows[key] = [
                values.setdefault(value, value) for value in fields[key_width:]
            ]
            if prov.enabled:
                for column in value_columns:
                    prov.record_cell(expansion_name, key, column, cid)
        return generation

    def generate_table(self, expansion_name: str) -> TableGeneration:
        """Generate all rows of one expansion table, one call per key.

        With ``workers > 1`` the per-key calls run concurrently; rows are
        assembled in key order, so the result is identical to sequential
        generation.
        """
        tel = self._tel
        with (
            tel.tracer.span("hqdl:generate", table=expansion_name)
            if tel.enabled
            else NULL_SPAN
        ):
            with (tel.tracer.span("hqdl:prepare") if tel.enabled else NULL_SPAN):
                builder, keys, prompts = self._prepare_table(expansion_name)
            outcomes = self._dispatch_ordered(
                prompts, f"hqdl:{expansion_name}"
            )
            with (tel.tracer.span("hqdl:assemble") if tel.enabled else NULL_SPAN):
                return self._assemble_table(
                    expansion_name, builder, keys, outcomes, prompts
                )

    def generate_all(
        self, deadline: Optional[Deadline] = None
    ) -> GenerationResult:
        """Generate every expansion table of this world.

        All row-completion calls of *all* expansion tables form one flat
        dispatch, so with ``workers > 1`` generation parallelizes across
        attributes (tables) and keys alike, instead of finishing one
        table before starting the next.  Once ``deadline`` (a request's
        budget, from the serving layer) has expired, the remaining row
        calls are skipped with typed degradable outcomes, so their rows
        materialize as NULLs instead of blocking past the budget.
        """
        tel = self._tel
        result = GenerationResult(database=self.world.name, shots=self.shots)
        with (
            tel.tracer.span("hqdl:generate", database=self.world.name)
            if tel.enabled
            else NULL_SPAN
        ):
            with (tel.tracer.span("hqdl:prepare") if tel.enabled else NULL_SPAN):
                prepared = [
                    (expansion.name, *self._prepare_table(expansion.name))
                    for expansion in self.world.expansions
                ]
                prompts = [
                    p for _, _, _, table_prompts in prepared for p in table_prompts
                ]
                labels = [
                    f"hqdl:{name}"
                    for name, _, _, table_prompts in prepared
                    for _ in table_prompts
                ]
            outcomes = self._dispatch_ordered(prompts, labels, deadline)
            with (tel.tracer.span("hqdl:assemble") if tel.enabled else NULL_SPAN):
                offset = 0
                values: dict[str, str] = {}
                for name, builder, keys, table_prompts in prepared:
                    table_outcomes = outcomes[offset : offset + len(table_prompts)]
                    offset += len(table_prompts)
                    result.tables[name] = self._assemble_table(
                        name, builder, keys, table_outcomes, table_prompts, values
                    )
        return result

    # -- materialization ---------------------------------------------------------

    def materialize(self, db: Database, generation: GenerationResult) -> None:
        """Insert all generated tables into ``db`` (the curated database)."""
        tel = self._tel
        with (
            tel.tracer.span("hqdl:materialize", database=self.world.name)
            if tel.enabled
            else NULL_SPAN
        ):
            for expansion in self.world.expansions:
                table_generation = generation.tables.get(expansion.name)
                if table_generation is None:
                    raise ReproError(
                        f"generation result is missing table {expansion.name!r}"
                    )
                materialize_expansion(db, expansion, table_generation.rows)

    def build_expanded_database(
        self, generation: Optional[GenerationResult] = None
    ) -> Database:
        """Curated database + materialized expansions, ready for queries."""
        generation = generation or self.generate_all()
        db = build_curated_database(self.world)
        self.materialize(db, generation)
        return db

    # -- query execution -----------------------------------------------------------

    def answer(self, db: Database, question: Question) -> ResultSet:
        """Execute a question's HQDL hybrid SQL on an expanded database."""
        if question.database != self.world.name:
            raise ReproError(
                f"question {question.qid} belongs to {question.database!r}, "
                f"not {self.world.name!r}"
            )
        tel = self._tel
        with (
            tel.tracer.span("hqdl:answer", qid=question.qid)
            if tel.enabled
            else NULL_SPAN
        ):
            return db.query(question.hqdl_sql)
