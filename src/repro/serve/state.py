"""Per-database pipeline state of one :class:`~repro.serve.server.QueryServer`.

All requests of all tenants share one client stack, one prompt cache and
one curated (UDF) or lazily expanded (HQDL) database per SWAN database —
cross-request reuse is the whole economic argument for serving hybrid
queries from a resident process.  :class:`DatabaseStates` builds each
state on first touch (through :func:`~repro.llm.stack.build_client_stack`,
the one place the client layering exists) and tears all of them down.
Both states expose the same face to the server: a
:class:`~repro.pipeline.Pipeline`, the prompt cache in front of its paid
calls, and ``query(request)``, what the pipeline prepares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Union

from repro.core.hqdl import HQDL
from repro.llm.cache import PromptCache
from repro.llm.client import ChatClient
from repro.llm.faults import FaultPlan
from repro.llm.resilience import Clock, ResilienceReport, RetryPolicy
from repro.llm.stack import ClientStack, build_client_stack, build_resilient_stack
from repro.llm.usage import UsageMeter
from repro.obs import Telemetry
from repro.serve.request import QueryRequest
from repro.sqlengine.database import Database
from repro.swan.base import Question
from repro.swan.benchmark import Swan
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.ingredients import parse_map_answers
from repro.udf.store import MappingStore

if TYPE_CHECKING:
    from repro.serve.server import ServerConfig


def _decode(completion: str, expected: int) -> tuple[Optional[str], ...]:
    """:func:`parse_map_answers` as an immutable (memoizable) value."""
    return tuple(parse_map_answers(completion, expected))


#: entries kept by each of a :class:`UdfState`'s two flush-path memos
FLUSH_MEMO_SIZE = 4096


@dataclass
class UdfState:
    """One database's long-lived UDF serving state.

    ``chunk_prompt`` and ``decode`` memoize the two pure steps either
    side of a flushed map call — (ingredient call, key chunk) → prompt
    and (completion, chunk length) → answers.  Under serving most
    flushed chunks recur and the prompt cache answers them, so without
    the memos the server assembles and re-decodes ten prompts for each
    one it pays for.  The prompt still goes through the caching client:
    every hit, miss and usage counter is unchanged.  They live here, on
    the flush path only: a batch run repeats texts too, but a memo there
    would be one more store of generated values, not a win.

    ``store`` is the executor's :class:`MappingStore`: per database,
    because an ingredient signature names no database.
    """

    db: Database
    pipeline: HybridQueryExecutor
    cache: PromptCache
    stack: ClientStack
    store: MappingStore

    def __post_init__(self) -> None:
        memo = lru_cache(maxsize=FLUSH_MEMO_SIZE)
        self.chunk_prompt = memo(self.pipeline.map_prompt)
        self.decode = memo(_decode)

    def query(self, request: QueryRequest) -> str:
        """What the pipeline prepares for ``request``: its hybrid SQL."""
        return request.sql

    def close(self) -> None:
        self.db.close()
        self.stack.close()


@dataclass
class HqdlState:
    """One database's long-lived HQDL serving state.

    ``pipeline`` prepares a request's question and holds the expanded
    database its first run materializes.
    """

    pipeline: HQDL
    stack: ClientStack
    #: prompt cache in front of generation, only under cross-request
    #: batching: flushed generation prompts land here, so the first
    #: finalize materializes from cache instead of paying twice
    cache: Optional[PromptCache]
    swan: Swan

    def query(self, request: QueryRequest) -> Question:
        """What the pipeline prepares for ``request``: its question."""
        return self.swan.question(request.qid)

    def close(self) -> None:
        self.pipeline.close()
        self.stack.close()


@dataclass
class DatabaseStates:
    """Lazily built UDF / HQDL state per database, closed together.

    ``meter``, ``resilience`` and ``telemetry`` are the server-wide
    sinks every state reports into; ``retry_clock`` is where retry
    backoff sleeps under ``fault_rate > 0``.
    """

    swan: Swan
    config: "ServerConfig"
    meter: UsageMeter
    resilience: ResilienceReport
    telemetry: Telemetry
    retry_clock: Clock
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

    def _stack(self, world, wrap, memory_cache=None) -> ClientStack:
        config = self.config
        return build_client_stack(
            world, config.model_name, shots=config.shots, meter=self.meter,
            wrap=wrap, cache_dir=config.cache_dir, memory_cache=memory_cache,
            telemetry=self.telemetry,
        )

    def udf(self, database: str) -> UdfState:
        state = self._udf.get(database)
        if state is None:
            config = self.config
            world = self.swan.world(database)
            stack = self._stack(world, self._wrap_faults)
            db = build_curated_database(world)
            cache = PromptCache()
            store = MappingStore()
            executor = HybridQueryExecutor(
                db,
                stack.client,
                world,
                batch_size=config.batch_size,
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
        return state

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
            # flushed generation prompts must be reusable at finalize
            cache = PromptCache() if config.batching is not None else None
            stack = self._stack(world, self._wrap_faults, cache)
            pipeline = HQDL(
                world,
                stack.client,
                shots=config.shots,
                workers=self._dispatch_threads,
                resilience=self.resilience,
                telemetry=self.telemetry,
            )
            state = self._hqdl[database] = HqdlState(
                pipeline, stack, cache, self.swan
            )
        return state

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
