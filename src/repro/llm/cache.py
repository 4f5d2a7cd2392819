"""Prompt-keyed completion caching (the BlendSQL caching model).

Section 5.5 of the paper: BlendSQL "caches LLM-generated content as a
mapping from input prompts to LLM output answers", which makes reuse
brittle — two prompts with the same meaning but different text miss.
:class:`PromptCache` implements exactly that mapping, and
:class:`CachingClient` wraps any :class:`~repro.llm.client.ChatClient`
with it.  Hit/miss statistics feed the caching ablation bench.

Both are thread-safe: every cache read and write takes
:class:`PromptCache`'s lock.  Neither deduplicates concurrent misses;
the dispatcher sends each unique prompt of a dispatch once
(:mod:`repro.llm.parallel`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.llm.client import ChatClient, ChatResponse
from repro.llm.usage import Usage
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.provenance import TIER_MEMORY


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


class CachingClient:
    """A ChatClient decorator that short-circuits repeated prompts.

    Cache hits cost zero tokens (nothing reaches the model), which is how
    the paper accounts for reuse.  A miss calls through and stores the
    completion; a failed call stores nothing, so the next call of the
    prompt goes upstream again and only a caller's *own* failure ever
    propagates out of :meth:`complete`.

    Deduplication is the dispatcher's job, not this client's:
    :class:`~repro.llm.parallel.ParallelDispatcher` sends each unique
    prompt of a dispatch once, and no pipeline shares one client across
    concurrent dispatches.  Two threads that miss on one prompt at once
    both pay for it.
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
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        metrics = self._tel.metrics
        self._m_hits = metrics.counter("llm.cache.hits")
        self._m_misses = metrics.counter("llm.cache.misses")

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Serve from cache when possible; otherwise call through and store."""
        if not self._tel.enabled:
            response = self._lookup(prompt)
            return response if response is not None else self._fetch(prompt, label)
        with self._tel.tracer.span("llm:cache", label=label) as span:
            response = self._lookup(prompt)
            if response is not None:
                span.set("outcome", "hit")
                return response
            span.set("outcome", "miss")
            return self._fetch(prompt, label)

    def _lookup(self, prompt: str) -> ChatResponse | None:
        cached = self.cache.get(prompt)
        if cached is None:
            self._m_misses.inc()
            return None
        self._m_hits.inc()
        if self._prov.enabled:
            self._prov.record_tier(prompt, TIER_MEMORY)
        return ChatResponse(cached, Usage())

    def _fetch(self, prompt: str, label: str) -> ChatResponse:
        response = self.inner.complete(prompt, label=label)
        self.cache.put(prompt, response.text)
        return response
