"""Per-database pipeline state of one :class:`~repro.serve.server.QueryServer`.

All requests of all tenants share one client stack, one prompt cache and
one curated (UDF) or lazily expanded (HQDL) database per SWAN database —
cross-request reuse is the whole economic argument for serving hybrid
queries from a resident process.  :class:`DatabaseStates` builds each
state on first touch (through :func:`~repro.llm.stack.build_client_stack`,
the one place the client layering exists) and tears all of them down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from repro.core.hqdl import HQDL
from repro.llm.cache import PromptCache
from repro.llm.client import ChatClient
from repro.llm.faults import FaultPlan
from repro.llm.resilience import Clock, ResilienceReport, RetryPolicy
from repro.llm.stack import ClientStack, build_client_stack, build_resilient_stack
from repro.llm.usage import UsageMeter
from repro.obs import Telemetry
from repro.plan import MappingStore
from repro.sqlengine.database import Database
from repro.swan.benchmark import Swan
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.ingredients import parse_map_answers

if TYPE_CHECKING:
    from repro.serve.server import ServerConfig


def _decode(completion: str, expected: int) -> tuple[Optional[str], ...]:
    """:func:`parse_map_answers` as an immutable (memoizable) value."""
    return tuple(parse_map_answers(completion, expected))


class SizeRecorder:
    """A pass-through client recording (input, output) sizes of paid calls.

    The UDF executor reports its own call sizes; HQDL does not, so the
    server slips this between the pipeline and the model to know what a
    generation *cost* — cache-served responses (zero ``Usage.calls``)
    are free and unrecorded, matching the makespan model.
    """

    def __init__(self, inner: ChatClient, sizes: list[tuple[int, int]]) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.prefers_batch_dispatch = bool(
            getattr(inner, "prefers_batch_dispatch", False)
        )
        self.sizes = sizes

    def _record(self, response) -> None:
        if response.usage.calls:
            self.sizes.append(
                (response.usage.input_tokens, response.usage.output_tokens)
            )

    def complete(self, prompt: str, *, label: str = ""):
        response = self.inner.complete(prompt, label=label)
        self._record(response)
        return response

    def complete_many(self, prompts, labels, *, deadline=None):
        if deadline is not None:
            responses = self.inner.complete_many(prompts, labels, deadline=deadline)
        else:
            responses = self.inner.complete_many(prompts, labels)
        for response in responses:
            self._record(response)
        return responses


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
    the flush path only — a batch run builds each prompt once, and a
    memo there would be pure memory.
    """

    db: Database
    executor: HybridQueryExecutor
    cache: PromptCache
    stack: ClientStack

    def __post_init__(self) -> None:
        memo = lru_cache(maxsize=FLUSH_MEMO_SIZE)
        self.chunk_prompt = memo(self.executor._map_prompt)
        self.decode = memo(_decode)

    def close(self) -> None:
        self.db.close()
        self.stack.close()


@dataclass
class HqdlState:
    """One database's long-lived HQDL serving state (lazy materialization)."""

    pipeline: HQDL
    #: sizes of every paid generation call, appended by the recorder
    sizes: list[tuple[int, int]]
    stack: ClientStack
    #: prompt cache in front of generation, only under cross-request
    #: batching: flushed generation prompts land here, so the first
    #: finalize materializes from cache instead of paying twice
    cache: Optional[PromptCache]
    db: Optional[Database] = None

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
        self.stack.close()


@dataclass
class DatabaseStates:
    """Lazily built UDF / HQDL state per database, closed together.

    ``meter``, ``resilience``, ``telemetry`` and ``mapping_store`` are the
    server-wide sinks every state reports into; ``retry_clock`` is where
    retry backoff sleeps under ``fault_rate > 0``.
    """

    swan: Swan
    config: "ServerConfig"
    meter: UsageMeter
    resilience: ResilienceReport
    telemetry: Telemetry
    mapping_store: MappingStore
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
                mapping_store=self.mapping_store,
            )
            executor.publish_mappings = config.share_mappings
            state = self._udf[database] = UdfState(db, executor, cache, stack)
        return state

    def hqdl(self, database: str) -> HqdlState:
        state = self._hqdl.get(database)
        if state is None:
            config = self.config
            world = self.swan.world(database)
            sizes: list[tuple[int, int]] = []
            # flushed generation prompts must be reusable at finalize
            cache = PromptCache() if config.batching is not None else None
            stack = self._stack(
                world,
                lambda model: SizeRecorder(self._wrap_faults(model), sizes),
                cache,
            )
            pipeline = HQDL(
                world,
                stack.client,
                shots=config.shots,
                workers=self._dispatch_threads,
                resilience=self.resilience,
                telemetry=self.telemetry,
            )
            state = self._hqdl[database] = HqdlState(
                pipeline, sizes, stack, cache
            )
        return state

    def udf_cache_totals(self) -> tuple[int, int]:
        """(hits, misses) summed over every UDF prompt cache."""
        caches = [state.cache for state in self._udf.values()]
        return sum(c.hits for c in caches), sum(c.misses for c in caches)

    def close(self) -> None:
        """Release every database connection and disk cache."""
        for state in (*self._udf.values(), *self._hqdl.values()):
            state.close()
        self._udf.clear()
        self._hqdl.clear()
