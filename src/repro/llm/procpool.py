"""Process-level LLM dispatch for CPU-bound stages.

The thread-based :class:`~repro.llm.parallel.ParallelDispatcher` overlaps
*latency*, but the simulated model is pure Python — prompt parsing,
oracle lookups, and tokenization all hold the GIL, so at scale the
threads serialize.  :class:`ProcPoolClient` moves that CPU work into a
``ProcessPoolExecutor``: each worker process owns
:class:`~repro.llm.chat.MockChatModel` replicas (one per world it has
served, built lazily) and returns ``(text, input_tokens,
output_tokens)``; the parent re-records the tokens on the shared
:class:`~repro.llm.usage.UsageMeter`.

Byte-identity with the thread path follows from determinism: the model
is a pure function of ``(world, prompt)``, token counting is pure, and
``UsageMeter.record`` is commutative — so results, Usage totals, and
cache behaviour are identical whether a prompt was completed in-process
or in a worker.

Two pool ownership modes:

- **private** (the default): each :class:`ProcPoolClient` owns its own
  ``ProcessPoolExecutor``, started lazily and reaped by :meth:`close`.
- **shared**: a :class:`SharedProcessPool` owns one executor that many
  clients — one per database — submit into.  This is what lets
  ``db_workers`` compose with ``parallelism="processes"``: concurrent
  per-database runs share ``processes`` workers total instead of
  spawning ``db_workers × processes`` processes, and the long-lived
  query server serves every tenant from one warm pool.  Worker-side
  model replicas are keyed by ``(world, scale, model)``, so
  one worker can serve any database.

The client is dispatcher-agnostic: it plugs into the existing
``ParallelDispatcher`` (whose threads merely block on worker futures) so
ordering, provenance, and degradation semantics are untouched.  Worker
processes with the ``fork`` start method inherit the parent's
already-built worlds; a registry fallback rebuilds the world by name
otherwise.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from repro.errors import DeadlineExceededError, LLMError, TransientLLMError
from repro.llm.client import ChatResponse
from repro.llm.usage import UsageMeter
from repro.swan.base import World

__all__ = ["ProcPoolClient", "SharedProcessPool"]

#: Worlds registered by the parent before the pool forks, keyed by
#: ``(name, scale)``; fork-started workers see this populated and skip
#: the (expensive) rebuild in :func:`_worker_model`.
_WORLD_REGISTRY: dict[tuple[str, int], World] = {}

#: Per-worker-process model replicas, keyed by
#: ``(world_name, scale, model_name)`` and built lazily on the
#: first chunk that needs them — one worker serves any database.
_WORKER_MODELS: dict = {}


def _worker_model(world_name: str, scale: int, model_name: str):
    """This worker process's model replica for one world, built lazily."""
    key = (world_name, scale, model_name)
    model = _WORKER_MODELS.get(key)
    if model is not None:
        return model
    from repro.llm.chat import MockChatModel
    from repro.llm.oracle import KnowledgeOracle
    from repro.llm.profiles import get_profile

    world = _WORLD_REGISTRY.get((world_name, scale))
    if world is None:
        from repro.swan.scale import scale_world
        from repro.swan.worlds import WORLD_BUILDERS

        world = scale_world(WORLD_BUILDERS[world_name](), scale)
        _WORLD_REGISTRY[(world_name, scale)] = world
    model = MockChatModel(
        KnowledgeOracle(world), get_profile(model_name), meter=UsageMeter()
    )
    _WORKER_MODELS[key] = model
    return model


def _init_worker(world_name: str, scale: int, model_name: str) -> None:
    """Pre-build one world's replica (private-pool workers warm up eagerly)."""
    _worker_model(world_name, scale, model_name)


def _complete_chunk_in_worker(
    model_key: tuple, prompts: Sequence[str], labels: Sequence[str]
) -> list[tuple[str, int, int]]:
    """Complete a whole chunk of prompts per IPC round trip.

    Per-prompt submission costs one pickle/unpickle/wakeup cycle each
    way; at bird scale tens of thousands of those dominate the win from
    parallelism.  Chunking amortizes the round trip over hundreds of
    prompts while each answer stays the same pure function of
    ``(world, prompt)``.
    """
    model = _worker_model(*model_key)
    out: list[tuple[str, int, int]] = []
    for prompt, label in zip(prompts, labels):
        response = model.complete(prompt, label=label)
        out.append(
            (response.text, response.usage.input_tokens, response.usage.output_tokens)
        )
    return out


class SharedProcessPool:
    """One ``ProcessPoolExecutor`` shared by many :class:`ProcPoolClient`\\ s.

    Create it once per run (or per server lifetime), hand
    :meth:`client_for` out per database, and :meth:`close` it after the
    last client finished.  Clients bound to a shared pool never shut it
    down themselves.
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        self.processes = max(1, processes) if processes is not None else None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.processes)
            return self._pool

    def client_for(
        self,
        world: World,
        model_name: str,
        *,
        meter: Optional[UsageMeter] = None,
    ) -> "ProcPoolClient":
        """A per-database client view submitting into this shared pool."""
        return ProcPoolClient(world, model_name, meter=meter, pool=self)

    def close(self) -> None:
        """Shut the pool down, reaping every worker process."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SharedProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcPoolClient:
    """A ChatClient that completes prompts in worker processes.

    Drop-in replacement for :class:`~repro.llm.chat.MockChatModel` in the
    harness runners: same ``model_name`` attribute (cache layers key on
    it) and the same per-call Usage accounting on ``meter``.  With
    ``pool=`` it submits into a :class:`SharedProcessPool` (and never
    closes it); without, it lazily owns a private pool.
    """

    #: tells the dispatcher to hand this client whole prompt lists
    #: (:meth:`complete_many`) instead of one call per worker thread
    prefers_batch_dispatch = True

    def __init__(
        self,
        world: World,
        model_name: str,
        *,
        processes: Optional[int] = None,
        meter: Optional[UsageMeter] = None,
        pool: Optional[SharedProcessPool] = None,
    ) -> None:
        self.world = world
        self.model_name = model_name
        self.meter = meter or UsageMeter()
        self.processes = max(1, processes) if processes is not None else None
        self.shared_pool = pool
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        _WORLD_REGISTRY[(world.name, world.scale)] = world

    @property
    def _model_key(self) -> tuple:
        return (self.world.name, self.world.scale, self.model_name)

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.shared_pool is not None:
            return self.shared_pool.executor()
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.processes,
                    initializer=_init_worker,
                    initargs=self._model_key,
                )
            return self._pool

    def close(self) -> None:
        """Shut a *private* pool down; a shared pool outlives its clients."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ProcPoolClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ChatClient ----------------------------------------------------------

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Complete one prompt in a worker process.

        Blocking here is intentional: concurrency comes from the calling
        dispatcher's threads, each of which parks on its own worker
        future, keeping dispatch order and retry semantics unchanged.
        """
        pool = self._ensure_pool()
        try:
            [(text, input_tokens, output_tokens)] = pool.submit(
                _complete_chunk_in_worker, self._model_key, [prompt], [label]
            ).result()
        except BrokenProcessPool as exc:
            # a worker died (OOM, kill, crash): reap the remaining
            # processes now so none are orphaned, then surface a
            # retryable error — the resilience layer decides what's next
            self.close()
            raise TransientLLMError(f"process pool broke: {exc}") from exc
        usage = self.meter.record(input_tokens, output_tokens, label)
        return ChatResponse(text, usage)

    def complete_many(
        self, prompts: Sequence[str], labels: Sequence[str], *, deadline=None
    ) -> list[ChatResponse]:
        """Complete a prompt list in chunked worker submissions.

        The batch-dispatch entry point: the dispatcher hands over its
        (already deduplicated) unique-prompt list, and the pool splits
        it into a few chunks per worker — balancing the tail without
        paying a round trip per prompt.  Responses come back in prompt
        order, each recorded on ``meter`` exactly as :meth:`complete`
        would have.

        ``deadline`` bounds submission: chunks whose turn comes after
        the deadline expired are never submitted — the whole batch
        fails with a typed :class:`~repro.errors.DeadlineExceededError`
        (batch granularity, matching the dispatcher's batched-path error
        contract) instead of queueing doomed work behind live traffic.
        """
        if len(prompts) != len(labels):
            raise LLMError(
                f"got {len(labels)} labels for {len(prompts)} prompts"
            )
        pool = self._ensure_pool()
        workers = pool._max_workers or 1
        chunk = max(1, -(-len(prompts) // (workers * 4)))
        futures = []
        for start in range(0, len(prompts), chunk):
            if deadline is not None and deadline.expired:
                for future in futures:
                    future.cancel()
                raise DeadlineExceededError(
                    f"deadline expired after submitting {len(futures)} of "
                    f"{-(-len(prompts) // chunk)} chunks; remaining work skipped"
                )
            futures.append(
                pool.submit(
                    _complete_chunk_in_worker,
                    self._model_key,
                    list(prompts[start : start + chunk]),
                    list(labels[start : start + chunk]),
                )
            )
        try:
            triples = [triple for future in futures for triple in future.result()]
        except BrokenProcessPool as exc:
            self.close()
            raise TransientLLMError(f"process pool broke: {exc}") from exc
        return [
            ChatResponse(text, self.meter.record(input_tokens, output_tokens, label))
            for (text, input_tokens, output_tokens), label in zip(triples, labels)
        ]
