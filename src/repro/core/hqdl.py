"""The HQDL pipeline orchestrator (paper Section 4.1).

Flow, per database:

1. **Schema expansion** — the curated schema gains the expansion tables
   SWAN specifies (missing columns/tables plus meaningful keys).
2. **Data generation** — one LLM row-completion call per key, with the
   configured number of static few-shot demonstrations.
3. **Data extraction** — completions parsed via the csv module; malformed
   rows are dropped and counted (a server asks each one once more, see
   :meth:`HQDL.repair`).
4. **Materialization** — extracted rows inserted into the expansion
   tables of a (copy of the) curated database.
5. **Query execution** — each question's ``hqdl_sql`` runs as plain SQL.

A key operational property (Section 5.5): generation happens *once per
database*, and every question over that database reuses the materialized
tables — which is why HQDL's token bill is a fraction of HQ UDFs'.

:class:`HQDL` runs them as the stages of :class:`~repro.pipeline.Pipeline`:
the first question's plan pays for steps 2–3 and its run materializes;
every later question's plan is empty and its run is step 5 alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.core.extraction import extract_row
from repro.core.materialize import materialize_expansion
from repro.core.prompts import RowPromptBuilder, repair_prompt
from repro.errors import ExtractionError, ReproError
from repro.llm.client import ChatClient
from repro.llm.intent import Prompt
from repro.llm.parallel import DispatchOutcome, ParallelDispatcher
from repro.llm.resilience import Deadline, ResilienceReport
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import call_id_for
from repro.obs.trace import NULL_SPAN
from repro.pipeline import ExecutionReport, Fillings, Work
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
    #: key -> the extraction error of each malformed row (the call
    #: returned, but the completion resisted extraction)
    parse_errors: dict[tuple, str] = field(default_factory=dict)
    calls: int = 0
    #: rows whose LLM call failed outright (transient error that survived
    #: the retry layer) and degraded to NULLs, distinct from ``malformed``.
    degraded: int = 0
    #: malformed rows a repair prompt (:meth:`HQDL.repair`) made parse
    repaired: int = 0

    @property
    def malformed(self) -> int:
        return len(self.parse_errors)

    def generated_cells(self) -> int:
        return sum(len(v) for v in self.rows.values() if v is not None)


@dataclass
class GenerationResult:
    """Per-expansion generations for one (database, model, shots) config."""

    database: str
    shots: int
    tables: dict[str, TableGeneration] = field(default_factory=dict)
    #: the paid calls of this generation (cache hits are free)
    report: ExecutionReport = field(default_factory=ExecutionReport)

    def total_malformed(self) -> int:
        return sum(t.malformed for t in self.tables.values())

    def total_repaired(self) -> int:
        return sum(t.repaired for t in self.tables.values())


class _TableWork(NamedTuple):
    """One expansion table's generation work, in key order."""

    name: str
    builder: RowPromptBuilder
    keys: list[tuple]
    prompts: list[Prompt]


class HqdlPlan(NamedTuple):
    """What one question needs from HQDL: the generation work of every
    expansion table not yet resident (all on first touch, none once the
    pipeline holds its expanded database)."""

    question: Optional[Question]
    tables: tuple[_TableWork, ...] = ()

    def work(self) -> tuple[Work, ...]:
        """One whole-prompt item per row call, table by table, key by key."""
        return tuple(
            Work(None, (), 1, prompt, f"hqdl:{table.name}")
            for table in self.tables
            for prompt in table.prompts
        )


class HQDL:
    """Schema-expansion hybrid querying for one world, as the three
    stages of :class:`~repro.pipeline.Pipeline`."""

    def __init__(
        self,
        world: World,
        client: ChatClient,
        *,
        shots: int = 0,
        context_rows: int = 0,
        workers: int = 1,
        resilience: Optional[ResilienceReport] = None,
        telemetry: Optional[Telemetry] = None,
        provenance=None,
    ) -> None:
        self.world = world
        self.client = client
        self.shots = shots
        self.context_rows = context_rows
        self.workers = workers
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
        #: the resident expanded database (see :meth:`expand`)
        self.db: Optional[Database] = None
        #: the generation :meth:`expand` materialized into ``db``: its
        #: extracted cells, as the model wrote them
        self.generation: Optional[GenerationResult] = None

    def close(self) -> None:
        """Release the resident expanded database, if any."""
        if self.db is not None:
            self.db.close()
            self.db = None
            self.generation = None

    def _span(self, name: str, **attributes):
        tel = self._tel
        return tel.tracer.span(name, **attributes) if tel.enabled else NULL_SPAN

    # -- the three stages ----------------------------------------------------------

    def prepare(self, question: Optional[Question]) -> HqdlPlan:
        """Stage one: the row prompts of every table not yet resident."""
        if self.db is not None:
            return HqdlPlan(question)
        with self._span("hqdl:prepare"):
            return HqdlPlan(question, self._prepare_tables())

    def generate(
        self,
        plan: HqdlPlan,
        *,
        deadline: Optional[Deadline] = None,
        known: Optional[dict] = None,
    ) -> Fillings:
        """Stage two: pay for the plan's row calls, unless a run made the
        tables resident since it was prepared.  ``known`` is unused: no
        caller pays row prompts ahead (the server expands every HQDL
        database before its first arrival, so its plans are empty)."""
        if self.db is not None:
            return Fillings((), ExecutionReport())
        with self._span("hqdl:generate", database=self.world.name):
            return self._pay(plan.tables, deadline)

    def run(
        self, plan: HqdlPlan, fillings: Fillings
    ) -> tuple[ResultSet, ExecutionReport]:
        """Stage three: materialize once (:meth:`expand`), then answer."""
        if self.db is None:
            self.expand(fillings.answers[0])
        return self.answer(self.db, plan.question), fillings.report

    def execute_with_report(
        self, question: Question
    ) -> tuple[ResultSet, ExecutionReport]:
        plan = self.prepare(question)
        return self.run(plan, self.generate(plan))

    # -- generation ------------------------------------------------------------

    def _prepare_tables(self) -> tuple[_TableWork, ...]:
        """The prompt builder, keys, and prompts of every expansion table."""
        tables = []
        for expansion in self.world.expansions:
            provider = None
            if self._retriever is not None:
                provider = self._retriever.context_provider(self.context_rows)
            builder = RowPromptBuilder(
                self.world, expansion, shots=self.shots, context_provider=provider
            )
            keys = list(self.world.keys_for(expansion.name))
            prompts = [builder.build(key) for key in keys]
            tables.append(_TableWork(expansion.name, builder, keys, prompts))
        return tuple(tables)

    def _pay(
        self, tables: tuple[_TableWork, ...], deadline: Optional[Deadline]
    ) -> Fillings:
        """All row calls of ``tables`` as one flat dispatch (with ``workers
        > 1``, parallel across tables and keys alike), assembled.  Past
        ``deadline`` the remaining calls are skipped with degradable
        outcomes and their rows materialize as NULLs."""
        outcomes = self.dispatcher.dispatch(
            self.client,
            [prompt for table in tables for prompt in table.prompts],
            labels=[
                f"hqdl:{table.name}" for table in tables for _ in table.prompts
            ],
            capture_errors="transient",
            deadline=deadline,
        )
        result = GenerationResult(database=self.world.name, shots=self.shots)
        report = result.report
        with self._span("hqdl:assemble"):
            offset = 0
            values: dict[str, str] = {}
            for table in tables:
                end = offset + len(table.prompts)
                result.tables[table.name] = self._assemble_table(
                    table, outcomes[offset:end], values, report
                )
                offset = end
        return Fillings((result,), report)

    def plan_calls(self) -> list[tuple[str, str]]:
        """Every (prompt, label) generation would dispatch, without calling."""
        return [(work.prompt, work.label) for work in self.prepare(None).work()]

    def _assemble_table(
        self,
        table: _TableWork,
        outcomes: list[DispatchOutcome],
        values: dict[str, str],
        report: ExecutionReport,
    ) -> TableGeneration:
        """Extract dispatched completions into a TableGeneration, in key order,
        counting the paid calls (cache hits are free) in ``report``.

        A row whose call failed outright (a degradable dispatch outcome)
        yields NULLs — the materialized table keeps the key but loses the
        generated cells — and is counted as ``degraded``, mirroring how a
        production pipeline survives a partial provider outage.

        ``values`` maps each generated value to its first occurrence and
        is shared by every table of one generation, so equal cells are one
        string object: a generation repeats a few thousand distinct values
        across tens of thousands of cells.
        """
        generation = TableGeneration(expansion_name=table.name)
        expansion = self.world.expansion(table.name)
        key_width = len(expansion.key_columns)
        field_count = table.builder.expected_field_count()
        prov = self._prov
        value_columns = (
            expansion.generated_column_names() if prov.enabled else []
        )
        for key, prompt, outcome in zip(table.keys, table.prompts, outcomes):
            generation.calls += 1
            degraded = outcome.error is not None
            row = None
            if degraded:
                generation.degraded += 1
                self._m_degraded_rows.inc()
                if self.resilience is not None:
                    self.resilience.record_degraded(1)
            else:
                report.charge(outcome.response.usage)
                try:
                    fields = extract_row(outcome.response.text, field_count)
                except ExtractionError as exc:
                    generation.parse_errors[key] = str(exc)
                    self._m_malformed.inc()
                else:
                    row = [
                        values.setdefault(value, value)
                        for value in fields[key_width:]
                    ]
            generation.rows[key] = row
            if prov.enabled:
                cid = call_id_for(prompt)
                for column in value_columns:
                    prov.record_cell(
                        table.name, key, column, cid,
                        null=row is None, degraded=degraded,
                    )
        return generation

    def repair(
        self, plan: HqdlPlan, generation: GenerationResult
    ) -> ExecutionReport:
        """Ask each malformed row of ``generation`` once more, in place.

        The repair loop of a self-healing pipeline, applied to build
        rows: the retry is the row prompt with its parse error stated
        (:func:`~repro.core.prompts.repair_prompt`), so the model
        completes the same row and draws its format afresh.  A row whose
        retry parses gets its cells and counts as ``repaired``; one whose
        retry does not parse, or fails, stays malformed.  ``plan`` is the
        plan ``generation`` was paid for.  Only a server's warm build
        repairs (its rows answer every later question, from both
        pipelines); a batch run keeps the paper's one call per row.
        Returns the paid retries.
        """
        report = ExecutionReport()
        todo = []
        for table in plan.tables:
            built = generation.tables[table.name]
            if built.parse_errors:
                prompts = dict(zip(table.keys, table.prompts))
                todo += [
                    (table, built, key, repair_prompt(prompts[key], error))
                    for key, error in built.parse_errors.items()
                ]
        if not todo:
            return report
        with self._span("hqdl:repair", rows=len(todo)):
            outcomes = self.dispatcher.dispatch(
                self.client,
                [prompt for *_, prompt in todo],
                labels="hqdl:repair",
                capture_errors="transient",
            )
        # registered here, not at construction: a run that repairs
        # nothing exports no counter for it
        repaired = self._tel.metrics.counter("pipeline.repaired_rows")
        prov = self._prov
        for (table, built, key, prompt), outcome in zip(todo, outcomes):
            if outcome.error is not None:
                continue
            report.charge(outcome.response.usage)
            expansion = self.world.expansion(table.name)
            try:
                fields = extract_row(
                    outcome.response.text, table.builder.expected_field_count()
                )
            except ExtractionError as exc:
                built.parse_errors[key] = str(exc)
                continue
            built.rows[key] = fields[len(expansion.key_columns):]
            del built.parse_errors[key]
            built.repaired += 1
            repaired.inc()
            if prov.enabled:
                cid = call_id_for(prompt)
                for column in expansion.generated_column_names():
                    prov.record_cell(table.name, key, column, cid)
        return report

    def generate_all(
        self, deadline: Optional[Deadline] = None
    ) -> GenerationResult:
        """Every expansion table generated, resident or not: the stages
        one and two of a fresh pipeline, for callers keeping the result."""
        with self._span("hqdl:generate", database=self.world.name):
            with self._span("hqdl:prepare"):
                tables = self._prepare_tables()
            return self._pay(tables, deadline).answers[0]

    # -- materialization ---------------------------------------------------------

    def materialize(self, db: Database, generation: GenerationResult) -> None:
        """Insert all generated tables into ``db`` (the curated database)."""
        with self._span("hqdl:materialize", database=self.world.name):
            for expansion in self.world.expansions:
                table_generation = generation.tables.get(expansion.name)
                if table_generation is None:
                    raise ReproError(
                        f"generation result is missing table {expansion.name!r}"
                    )
                materialize_expansion(db, expansion, table_generation.rows)

    def expand(self, generation: GenerationResult) -> Database:
        """Make ``generation`` the resident expanded database, once: later
        plans find every table resident, and ``self.generation`` keeps
        the cells.  :meth:`close` releases both."""
        if self.db is None:
            self.db = self.build_expanded_database(generation)
            self.generation = generation
        return self.db

    def build_expanded_database(
        self, generation: Optional[GenerationResult] = None
    ) -> Database:
        """Curated database + materialized expansions, owned by the caller.

        On error the half-built copy is closed, never handed out.
        """
        generation = generation or self.generate_all()
        db = build_curated_database(self.world)
        try:
            self.materialize(db, generation)
        except BaseException:
            db.close()
            raise
        return db

    # -- query execution -----------------------------------------------------------

    def answer(self, db: Database, question: Question) -> ResultSet:
        """Execute a question's HQDL hybrid SQL on an expanded database."""
        if question.database != self.world.name:
            raise ReproError(
                f"question {question.qid} belongs to {question.database!r}, "
                f"not {self.world.name!r}"
            )
        with self._span("hqdl:answer", qid=question.qid):
            return db.query(question.hqdl_sql)
