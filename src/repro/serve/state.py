"""Per-database serving state of one :class:`~repro.serve.server.QueryServer`.

All requests of all tenants share one :class:`DatabaseState` per SWAN
database — cross-request reuse is the whole economic argument for
serving hybrid queries from a resident process.  A state owns one client
stack (through :func:`~repro.llm.stack.build_client_stack`, the one
place the client layering exists), one
:class:`~repro.udf.store.MappingStore`, and the UDF executor and HQDL
pipeline built over them on first use.  Each pipeline keeps its own
SQLite database: UDF SQL must not see the expansion tables, or a hybrid
query naming one would read generated cells without paying for them.
:class:`DatabaseStates` builds each state on first touch, warms every
HQDL database before the first arrival (:meth:`DatabaseStates.warm`),
and tears all of them down.  Warming faces the state's store at the
cells the build extracted
(:meth:`~repro.udf.store.MappingStore.attach_expansion`), so an LLMMap
there pays an equivalence check instead of map calls: one generation
per database.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.core.hqdl import HQDL
from repro.llm.client import ChatClient
from repro.llm.faults import FaultPlan
from repro.llm.resilience import ResilienceReport, RetryPolicy
from repro.llm.stack import ClientStack, build_client_stack, build_resilient_stack
from repro.llm.usage import UsageMeter
from repro.obs import Telemetry
from repro.plan.policy import adaptive_batch_size
from repro.serve.report import StartupRecord
from repro.serve.request import QueryRequest
from repro.swan.base import Question, World
from repro.swan.benchmark import Swan
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.store import MappingStore
from repro.vtime import Clock, parallel_makespan

if TYPE_CHECKING:
    from repro.serve.server import ServerConfig


@dataclass
class DatabaseState:
    """One served database: its client stack and mapping store, and the
    pipelines over them, each built on first use.

    ``store`` is per database, because an ingredient signature names no
    database; it is the UDF executor's store, and :meth:`DatabaseStates.
    warm` faces it at the database's resident HQDL expansion.  Both
    pipelines dispatch at ``workers=1``, on the event loop's thread:
    ``ServerConfig.workers`` only sizes the makespan model.
    """

    world: World
    stack: ClientStack
    states: "DatabaseStates" = field(repr=False)
    store: MappingStore = field(default_factory=MappingStore, init=False)
    _udf: Optional[HybridQueryExecutor] = field(default=None, init=False)
    _hqdl: Optional[HQDL] = field(default=None, init=False)

    @property
    def udf(self) -> HybridQueryExecutor:
        """The UDF executor, over a curated database of its own."""
        if self._udf is None:
            states = self.states
            config = states.config
            self._udf = HybridQueryExecutor(
                build_curated_database(self.world),
                self.stack.client,
                self.world,
                batch_size=states.chunk_size,
                pushdown=config.pushdown,
                shots=config.shots,
                resilience=states.resilience,
                telemetry=states.telemetry,
                mapping_store=self.store,
            )
        return self._udf

    @property
    def hqdl(self) -> HQDL:
        """The HQDL pipeline; :meth:`DatabaseStates.warm` expands it."""
        if self._hqdl is None:
            states = self.states
            self._hqdl = HQDL(
                self.world,
                self.stack.client,
                shots=states.config.shots,
                resilience=states.resilience,
                telemetry=states.telemetry,
            )
        return self._hqdl

    def close(self) -> None:
        if self._udf is not None:
            self._udf.db.close()
        if self._hqdl is not None:
            self._hqdl.close()
        self.stack.close()


@dataclass
class DatabaseStates:
    """One :class:`DatabaseState` per database, built on first touch or
    by :meth:`warm`, closed together.

    ``meter``, ``resilience`` and ``telemetry`` are the server-wide
    sinks every state reports into; ``retry_clock`` is where retry
    backoff sleeps under ``fault_rate > 0``.  ``chunk_size``, the keys
    per LLMMap/LLMJoin call of every served plan, batched or not, is
    decided once from the model profile, floored at
    ``config.batch_size``.
    """

    swan: Swan
    config: "ServerConfig"
    meter: UsageMeter
    resilience: ResilienceReport
    telemetry: Telemetry
    retry_clock: Clock
    chunk_size: int = field(init=False)
    _states: dict[str, DatabaseState] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        config = self.config
        self.chunk_size = adaptive_batch_size(
            config.model_name, config.shots, floor=config.batch_size
        )

    def _wrap_faults(self, model: ChatClient) -> ChatClient:
        """The chaos-mode wrap; a pass-through when fault_rate is 0."""
        config = self.config
        if config.fault_rate <= 0:
            return model
        return build_resilient_stack(
            model,
            plan=FaultPlan.uniform(config.fault_rate, seed=config.fault_seed),
            policy=RetryPolicy(seed=config.fault_seed),
            clock=self.retry_clock,
            report=self.resilience,
            telemetry=self.telemetry,
        )

    def __getitem__(self, database: str) -> DatabaseState:
        """``database``'s state, with its client stack built on first touch."""
        state = self._states.get(database)
        if state is None:
            config = self.config
            world = self.swan.world(database)
            stack = build_client_stack(
                world, config.model_name, shots=config.shots, meter=self.meter,
                wrap=self._wrap_faults, cache_dir=config.cache_dir,
                telemetry=self.telemetry,
            )
            state = self._states[database] = DatabaseState(world, stack, self)
        return state

    def of(
        self, request: QueryRequest
    ) -> tuple[Union[HybridQueryExecutor, HQDL], Union[str, Question]]:
        """The pipeline serving ``request`` and what it prepares: the
        hybrid SQL for UDF, the question for HQDL."""
        state = self[request.database]
        if request.pipeline == "udf":
            return state.udf, request.sql
        return state.hqdl, self.swan.question(request.qid)

    def warm(self, databases: Iterable[str]) -> StartupRecord:
        """Materialize the expanded database of every HQDL database named.

        Each build is ``prepare(None)`` → ``generate`` → ``repair`` →
        ``expand`` through the state's client stack and dispatcher (the
        retry stack under ``fault_rate > 0``, backoff sleeping on
        ``retry_clock``), with no deadline: no request is waiting.  The
        repair asks each malformed row once more (:meth:`HQDL.repair`),
        so the build is the one producer of every cell both pipelines
        read.  The returned record carries the paid calls, tokens,
        retries, virtual build time, the rows repaired and the rows left
        NULL, all of it before the first arrival.  Each build's cells
        become the face of that database's mapping store, a row still
        malformed among them (served as NULL, as HQDL reads it).
        """
        databases = tuple(sorted(set(databases)))
        row_sizes: list[tuple[int, int]] = []
        repair_sizes: list[tuple[int, int]] = []
        degraded = malformed = repaired = 0
        usage_before = self.meter.total
        retries_before = self.resilience.retries
        clock_before = self.retry_clock.now()
        for database in databases:
            state = self[database]
            pipeline = state.hqdl
            plan = pipeline.prepare(None)
            fillings = pipeline.generate(plan)
            if fillings.answers:  # empty when an earlier run built it
                generation = fillings.answers[0]
                repair_sizes += pipeline.repair(plan, generation).call_sizes
                pipeline.expand(generation)
                tables = generation.tables
                state.store.attach_expansion(
                    state.world.expansions,
                    {name: table.rows for name, table in tables.items()},
                    malformed={
                        name: table.parse_errors for name, table in tables.items()
                    },
                    value_lists=state.world.value_lists,
                )
                degraded += sum(t.degraded for t in tables.values())
                malformed += generation.total_malformed()
                repaired += generation.total_repaired()
            row_sizes += fillings.report.call_sizes
        paid = self.meter.total - usage_before
        backoff = self.retry_clock.now() - clock_before
        workers = self.config.workers
        return StartupRecord(
            databases=databases,
            calls=paid.calls,
            input_tokens=paid.input_tokens,
            output_tokens=paid.output_tokens,
            retries=self.resilience.retries - retries_before,
            backoff_seconds=backoff,
            # a repair waits on its row's first answer: two stages
            seconds=(
                parallel_makespan(row_sizes, workers)
                + parallel_makespan(repair_sizes, workers)
                + backoff
            ),
            degraded_rows=degraded,
            malformed_rows=malformed,
            repaired_rows=repaired,
        )

    def udf_cache_totals(self) -> tuple[int, int]:
        """(hits, misses) summed over every UDF executor's prompt cache."""
        caches = [
            state._udf.cache
            for state in self._states.values()
            if state._udf is not None
        ]
        return sum(c.hits for c in caches), sum(c.misses for c in caches)

    def mapping_stats(self) -> dict:
        """:meth:`MappingStore.stats` summed over every database's store."""
        totals: Counter = Counter()
        for state in self._states.values():
            totals.update(state.store.stats())
        return dict(totals)

    def close(self) -> None:
        """Release every database connection and disk cache."""
        for state in self._states.values():
            state.close()
        self._states.clear()


def hqdl_databases(requests: Sequence[QueryRequest]) -> list[str]:
    """The databases ``requests`` route to HQDL: what :meth:`warm` builds."""
    return sorted({r.database for r in requests if r.pipeline == "hqdl"})
