"""Prompt-keyed completion caching (the BlendSQL caching model).

Section 5.5 of the paper: BlendSQL "caches LLM-generated content as a
mapping from input prompts to LLM output answers", which makes reuse
brittle — two prompts with the same meaning but different text miss.
:class:`PromptCache` implements exactly that mapping, and
:class:`CachingClient` wraps any :class:`~repro.llm.client.ChatClient`
with it.  Hit/miss statistics feed the caching ablation bench.

Both are thread-safe, and :class:`CachingClient` adds **single-flight
deduplication**: when several workers miss on the same prompt at once,
one of them (the *leader*) performs the upstream call while the others
wait and reuse its completion at zero token cost — exactly one upstream
call per unique prompt, no matter how many threads race past the cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.llm.client import ChatClient, ChatResponse
from repro.llm.usage import Usage
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import TIER_MEMORY
from repro.obs.trace import NULL_SPAN


@dataclass
class PromptCache:
    """An exact-match prompt → completion cache with statistics.

    Safe for concurrent use: every lookup, store, and statistics read
    happens under one internal lock.
    """

    entries: dict[str, str] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def get(self, prompt: str) -> str | None:
        with self._lock:
            if prompt in self.entries:
                self.hits += 1
                return self.entries[prompt]
            self.misses += 1
            return None

    def put(self, prompt: str, completion: str) -> None:
        """Store one completion under the prompt's text.

        The key is a plain ``str`` even when ``prompt`` is a
        :class:`~repro.llm.intent.Prompt`: an intent lives for one
        dispatch, never for the life of the cache.
        """
        with self._lock:
            self.entries[str(prompt)] = completion

    def peek(self, prompt: str) -> str | None:
        """A statistics-free lookup: the entry if present, else None.

        Used by the cross-request batcher to decide whether a prompt
        still needs dispatching without distorting the hit/miss counts
        real completions produce.
        """
        with self._lock:
            return self.entries.get(prompt)

    def count_hit(self) -> None:
        """Count a reuse that bypassed :meth:`get` (a single-flight join)."""
        with self._lock:
            self.hits += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.hits = 0
            self.misses = 0

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


class _Flight:
    """One in-progress upstream call that followers can wait on."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: ChatResponse | None = None
        self.error: BaseException | None = None


class CachingClient:
    """A ChatClient decorator that short-circuits repeated prompts.

    Cache hits cost zero tokens (nothing reaches the model), which is how
    the paper accounts for reuse.  Under concurrency, an in-flight prompt
    is *joined* rather than re-sent (single-flight): followers block
    until the leader's completion lands, then reuse it for free.  A
    join counts as a cache hit — the same accounting a sequential run
    would produce — so hit/miss totals are worker-count independent.

    A leader that *fails* must not poison its followers: each follower
    re-enters the loop instead of inheriting the leader's exception, so
    it either finds a by-then-populated cache, joins a newer flight, or
    becomes the new leader and gets its own upstream attempt (with its
    own retry budget, when the inner client retries).  Only a thread's
    *own* upstream failure ever propagates out of :meth:`complete`.
    """

    def __init__(
        self,
        inner: ChatClient,
        cache: PromptCache | None = None,
        *,
        telemetry: Telemetry | None = None,
        provenance=None,
    ) -> None:
        self.inner = inner
        # `cache or PromptCache()` would discard an *empty* shared cache
        # (PromptCache defines __len__), so compare against None explicitly.
        self.cache = cache if cache is not None else PromptCache()
        self.model_name = inner.model_name
        # batch dispatch is only worth advertising when the inner client
        # completes whole batches itself (MockChatModel does so inline)
        self.prefers_batch_dispatch = bool(
            getattr(inner, "prefers_batch_dispatch", False)
        )
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        #: how many calls joined another thread's in-flight request
        self.single_flight_waits = 0
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        metrics = self._tel.metrics
        self._m_hits = metrics.counter("llm.cache.hits")
        self._m_misses = metrics.counter("llm.cache.misses")
        self._m_joins = metrics.counter("llm.cache.single_flight_joins")

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Serve from cache when possible; otherwise call through and store."""
        if not self._tel.enabled:
            return self._complete(prompt, label, NULL_SPAN)
        with self._tel.tracer.span("llm:cache", label=label) as span:
            return self._complete(prompt, label, span)

    def _complete(self, prompt: str, label: str, span) -> ChatResponse:
        while True:
            with self._lock:
                flight = self._flights.get(prompt)
                if flight is None:
                    cached = self.cache.get(prompt)
                    if cached is not None:
                        self._m_hits.inc()
                        if self._prov.enabled:
                            self._prov.record_tier(prompt, TIER_MEMORY)
                        span.set("outcome", "hit")
                        return ChatResponse(cached, Usage())
                    flight = _Flight()
                    self._flights[prompt] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                self._m_misses.inc()
                span.set("outcome", "miss")
                return self._lead(flight, prompt, label)
            flight.event.wait()
            if flight.error is not None:
                # the leader failed; re-attempt rather than inherit its
                # exception (the flight entry is already gone, so this
                # thread will lead — or join a newer, healthier flight)
                continue
            assert flight.response is not None
            with self._lock:
                self.cache.count_hit()
                self.single_flight_waits += 1
            self._m_hits.inc()
            self._m_joins.inc()
            if self._prov.enabled:
                # a single-flight join is a memory-tier reuse: the
                # follower never reached the model
                self._prov.record_tier(prompt, TIER_MEMORY)
            span.set("outcome", "join")
            return ChatResponse(flight.response.text, Usage())

    def complete_many(self, prompts, labels, *, deadline=None) -> list[ChatResponse]:
        """Batched :meth:`complete` for batch-dispatching inner clients.

        Expects ``prompts`` already deduplicated (the dispatcher's
        single-flight guarantees it), so hit/miss accounting per unique
        prompt is identical to the per-call path: one :meth:`PromptCache.
        get` each, one upstream completion per miss, every miss stored.
        ``deadline`` passes through to the inner batch client — cache
        hits are served regardless (they cost no upstream time).
        """
        responses: list[ChatResponse | None] = [None] * len(prompts)
        missing_indexes: list[int] = []
        for index, prompt in enumerate(prompts):
            cached = self.cache.get(prompt)
            if cached is not None:
                self._m_hits.inc()
                if self._prov.enabled:
                    self._prov.record_tier(prompt, TIER_MEMORY)
                responses[index] = ChatResponse(cached, Usage())
            else:
                self._m_misses.inc()
                missing_indexes.append(index)
        if missing_indexes:
            missing_prompts = [prompts[i] for i in missing_indexes]
            missing_labels = [labels[i] for i in missing_indexes]
            if deadline is not None:
                fresh = self.inner.complete_many(
                    missing_prompts, missing_labels, deadline=deadline
                )
            else:
                fresh = self.inner.complete_many(missing_prompts, missing_labels)
            for index, response in zip(missing_indexes, fresh):
                self.cache.put(prompts[index], response.text)
                responses[index] = response
        return responses  # type: ignore[return-value]

    def _lead(self, flight: _Flight, prompt: str, label: str) -> ChatResponse:
        """Perform the upstream call on behalf of every waiter."""
        try:
            response = self.inner.complete(prompt, label=label)
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                del self._flights[prompt]
            flight.event.set()
            raise
        flight.response = response
        self.cache.put(prompt, response.text)
        with self._lock:
            del self._flights[prompt]
        flight.event.set()
        return response
