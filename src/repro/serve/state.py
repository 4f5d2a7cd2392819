"""Per-database pipeline state of one :class:`~repro.serve.server.QueryServer`.

All requests of all tenants share one client stack and one curated (UDF)
or expanded (HQDL) database per SWAN database — cross-request reuse is
the whole economic argument for serving hybrid queries from a resident
process.  :class:`DatabaseStates` builds each state on first touch
(through :func:`~repro.llm.stack.build_client_stack`, the one place the
client layering exists), warms every HQDL state before the first
arrival (:meth:`DatabaseStates.warm`), and tears all of them down.
A database served by both pipelines keeps one generation: the UDF
state's mapping store faces the cells its warm HQDL build extracted
(:meth:`~repro.udf.store.MappingStore.attach_expansion`), so an LLMMap
there pays an equivalence check instead of map calls.
Both states expose the same face to the server: a
:class:`~repro.pipeline.Pipeline` and ``query(request)``, what the
pipeline prepares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.core.hqdl import HQDL
from repro.llm.cache import PromptCache
from repro.llm.client import ChatClient
from repro.llm.faults import FaultPlan
from repro.llm.resilience import ResilienceReport, RetryPolicy
from repro.llm.stack import ClientStack, build_client_stack, build_resilient_stack
from repro.llm.usage import UsageMeter
from repro.obs import Telemetry
from repro.plan.policy import AdaptiveBatchPolicy
from repro.serve.report import StartupRecord
from repro.serve.request import QueryRequest
from repro.sqlengine.database import Database
from repro.swan.base import Question
from repro.swan.benchmark import Swan
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.store import MappingStore
from repro.vtime import Clock, parallel_makespan

if TYPE_CHECKING:
    from repro.serve.server import ServerConfig


@dataclass
class UdfState:
    """One database's long-lived UDF serving state.

    ``store`` is the executor's :class:`MappingStore`: per database,
    because an ingredient signature names no database.  It faces the
    database's resident HQDL expansion, if the server holds one.
    """

    db: Database
    pipeline: HybridQueryExecutor
    cache: PromptCache
    stack: ClientStack
    store: MappingStore

    def query(self, request: QueryRequest) -> str:
        """What the pipeline prepares for ``request``: its hybrid SQL."""
        return request.sql

    def close(self) -> None:
        self.db.close()
        self.stack.close()


@dataclass
class HqdlState:
    """One database's long-lived HQDL serving state.

    ``pipeline`` holds the expanded database :meth:`DatabaseStates.warm`
    materialized before the first arrival, so every request's plan is
    empty and its run is the question's SQL alone.
    """

    pipeline: HQDL
    stack: ClientStack
    swan: Swan

    def query(self, request: QueryRequest) -> Question:
        """What the pipeline prepares for ``request``: its question."""
        return self.swan.question(request.qid)

    def close(self) -> None:
        self.pipeline.close()
        self.stack.close()


@dataclass
class DatabaseStates:
    """UDF / HQDL state per database, built on first touch or by
    :meth:`warm`, closed together.

    ``meter``, ``resilience`` and ``telemetry`` are the server-wide
    sinks every state reports into; ``retry_clock`` is where retry
    backoff sleeps under ``fault_rate > 0``; ``batch_policy`` sizes the
    LLMMap/LLMJoin calls of every UDF executor's plans.
    """

    swan: Swan
    config: "ServerConfig"
    meter: UsageMeter
    resilience: ResilienceReport
    telemetry: Telemetry
    retry_clock: Clock
    batch_policy: AdaptiveBatchPolicy
    _udf: dict[str, UdfState] = field(default_factory=dict, init=False)
    _hqdl: dict[str, HqdlState] = field(default_factory=dict, init=False)

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

    @property
    def _dispatch_threads(self) -> int:
        # Real threads per request (the cost model always fans out
        # ``config.workers`` ways).  Under fault injection a request's
        # virtual time is a running sum of backoffs that its Deadline
        # reads between calls, so its calls run in prompt order: threads
        # would make which calls find the budget spent depend on scheduling.
        return 1 if self.config.fault_rate > 0 else self.config.workers

    def _stack(self, world) -> ClientStack:
        config = self.config
        return build_client_stack(
            world, config.model_name, shots=config.shots, meter=self.meter,
            wrap=self._wrap_faults, cache_dir=config.cache_dir,
            telemetry=self.telemetry,
        )

    def udf(self, database: str) -> UdfState:
        state = self._udf.get(database)
        if state is None:
            config = self.config
            world = self.swan.world(database)
            stack = self._stack(world)
            db = build_curated_database(world)
            cache = PromptCache()
            store = MappingStore()
            executor = HybridQueryExecutor(
                db,
                stack.client,
                world,
                batch_policy=self.batch_policy,
                pushdown=config.pushdown,
                shots=config.shots,
                cache=cache,
                workers=self._dispatch_threads,
                resilience=self.resilience,
                telemetry=self.telemetry,
                mapping_store=store,
            )
            state = self._udf[database] = UdfState(
                db, executor, cache, stack, store
            )
            self._attach_expansion(database)
        return state

    def _attach_expansion(self, database: str) -> None:
        """Face ``database``'s UDF store at its resident HQDL cells, when
        both states exist and the expansion has been built."""
        udf, hqdl = self._udf.get(database), self._hqdl.get(database)
        if udf is None or hqdl is None or hqdl.pipeline.generation is None:
            return
        generation = hqdl.pipeline.generation
        udf.store.attach_expansion(
            hqdl.pipeline.world.expansions,
            {name: table.rows for name, table in generation.tables.items()},
        )

    def of(self, request: QueryRequest) -> Union[UdfState, HqdlState]:
        """The state serving ``request``: its pipeline over its database."""
        if request.pipeline == "udf":
            return self.udf(request.database)
        return self.hqdl(request.database)

    def hqdl(self, database: str) -> HqdlState:
        state = self._hqdl.get(database)
        if state is None:
            config = self.config
            world = self.swan.world(database)
            stack = self._stack(world)
            pipeline = HQDL(
                world,
                stack.client,
                shots=config.shots,
                workers=self._dispatch_threads,
                resilience=self.resilience,
                telemetry=self.telemetry,
            )
            state = self._hqdl[database] = HqdlState(pipeline, stack, self.swan)
        return state

    def warm(self, databases: Iterable[str]) -> StartupRecord:
        """Materialize the expanded database of every HQDL database named.

        Each build is ``prepare(None)`` → ``generate`` → ``expand`` through
        the state's own client stack and dispatcher (the retry stack under
        ``fault_rate > 0``, backoff sleeping on ``retry_clock``), with no
        deadline: no request is waiting.  The returned record carries the
        paid calls, tokens, retries, virtual build time and the rows left
        NULL, all of it before the first arrival.  Each build's cells
        become the face of that database's UDF store.
        """
        databases = tuple(sorted(set(databases)))
        sizes: list[tuple[int, int]] = []
        degraded = malformed = 0
        usage_before = self.meter.total
        retries_before = self.resilience.retries
        clock_before = self.retry_clock.now()
        for database in databases:
            pipeline = self.hqdl(database).pipeline
            fillings = pipeline.generate(pipeline.prepare(None))
            if fillings.answers:  # empty when an earlier run built it
                generation = fillings.answers[0]
                pipeline.expand(generation)
                degraded += sum(t.degraded for t in generation.tables.values())
                malformed += generation.total_malformed()
                self._attach_expansion(database)
            sizes += fillings.report.call_sizes
        paid = self.meter.total - usage_before
        backoff = self.retry_clock.now() - clock_before
        return StartupRecord(
            databases=databases,
            calls=paid.calls,
            input_tokens=paid.input_tokens,
            output_tokens=paid.output_tokens,
            retries=self.resilience.retries - retries_before,
            backoff_seconds=backoff,
            seconds=parallel_makespan(sizes, self.config.workers) + backoff,
            degraded_rows=degraded,
            malformed_rows=malformed,
        )

    def udf_cache_totals(self) -> tuple[int, int]:
        """(hits, misses) summed over every UDF prompt cache."""
        caches = [state.cache for state in self._udf.values()]
        return sum(c.hits for c in caches), sum(c.misses for c in caches)

    def mapping_stats(self) -> dict:
        """:meth:`MappingStore.stats` summed over every UDF state's store."""
        totals = MappingStore().stats()
        for state in self._udf.values():
            for name, value in state.store.stats().items():
                totals[name] += value
        return totals

    def close(self) -> None:
        """Release every database connection and disk cache."""
        for state in (*self._udf.values(), *self._hqdl.values()):
            state.close()
        self._udf.clear()
        self._hqdl.clear()


def hqdl_databases(requests: Sequence[QueryRequest]) -> list[str]:
    """The databases ``requests`` route to HQDL: what :meth:`warm` builds."""
    return sorted({r.database for r in requests if r.pipeline == "hqdl"})
