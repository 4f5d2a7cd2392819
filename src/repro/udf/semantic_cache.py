"""Semantic caching with query rewriting (Section 4.3 / 5.5 future work).

BlendSQL's prompt-keyed cache cannot reuse generations across
semantically-equal-but-differently-phrased questions ("Is the superhero
from the Marvel Universe?" vs "Does the hero come from Marvel?").  The
paper proposes "incorporating query rewriting within Hybrid Query UDFs
to fully leverage all cached LLM-generated data", citing LLM-based
equivalence checking.

:class:`SemanticCache` implements that design:

- generations are stored per *question*, as key → value mappings;
- a new question first tries an exact match, then shortlists previously
  seen questions by embedding cosine similarity, and confirms
  equivalence with one cheap LLM call (the mock model resolves both
  phrasings to an attribute and compares — its genuine "understanding");
- on a confirmed rewrite, cached values are reused per key and only the
  missing keys reach the model.

The equivalence calls cost tokens, so the net saving is an empirical
question — exactly what ``benchmarks/bench_future_semantic_cache.py``
measures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.llm.client import ChatClient
from repro.llm.intent import (
    EQUIVALENCE_MARKER,
    FIRST_QUESTION_MARKER,
    SECOND_QUESTION_MARKER,
    EquivalenceIntent,
    Prompt,
    inert,
)
from repro.udf.fewshot import cosine_similarity, embed

#: Candidate phrasings below this cosine similarity are not even worth an
#: equivalence check.
SHORTLIST_THRESHOLD = 0.3


def equivalence_prompt(first: str, second: str) -> Prompt:
    """The equivalence-check prompt (one of the mock model's protocols)."""
    first_quoted = first.replace("'", "''")
    second_quoted = second.replace("'", "''")
    text = "\n".join(
        [
            EQUIVALENCE_MARKER,
            f"{FIRST_QUESTION_MARKER} '{first_quoted}'",
            f"{SECOND_QUESTION_MARKER} '{second_quoted}'",
            "Answer yes or no.",
            "Answer:",
        ]
    )
    if not (inert(first) and inert(second)):
        return Prompt(text)
    return Prompt(text, EquivalenceIntent(first, second))


@dataclass
class _Store:
    question: str
    vector: dict[str, float]
    mapping: dict[tuple, str] = field(default_factory=dict)


@dataclass
class SemanticCacheStats:
    """Hit/miss/rewrite counters for one semantic cache."""

    exact_hits: int = 0
    rewrites: int = 0
    rejected_rewrites: int = 0
    misses: int = 0
    keys_reused: int = 0


class SemanticCache:
    """Cross-phrasing reuse of per-key generations.

    Store mutations and statistics are lock-protected, so one cache can
    be shared by concurrently executing pipelines.  The equivalence LLM
    call happens *outside* the lock — a slow model must not serialize
    unrelated lookups.
    """

    def __init__(self, *, shortlist_threshold: float = SHORTLIST_THRESHOLD) -> None:
        self.shortlist_threshold = shortlist_threshold
        self._stores: list[_Store] = []
        self.stats = SemanticCacheStats()
        self._lock = threading.RLock()

    def lookup(
        self, question: str, client: ChatClient
    ) -> Optional[dict[tuple, str]]:
        """The cached mapping for ``question`` (under rewriting), if any.

        Returns the *live* store mapping so the caller can read reusable
        keys and write freshly generated ones back into it.
        """
        with self._lock:
            for store in self._stores:
                if store.question == question:
                    self.stats.exact_hits += 1
                    return store.mapping
            candidate = self._best_candidate(question)
            if candidate is None:
                self.stats.misses += 1
                return None
        response = client.complete(
            equivalence_prompt(question, candidate.question), label="udf:rewrite"
        )
        with self._lock:
            if response.text.strip().lower().startswith("yes"):
                self.stats.rewrites += 1
                return candidate.mapping
            self.stats.rejected_rewrites += 1
            self.stats.misses += 1
            return None

    def _best_candidate(self, question: str) -> Optional[_Store]:
        vector = embed(question)
        best: Optional[_Store] = None
        best_score = self.shortlist_threshold
        for store in self._stores:
            score = cosine_similarity(vector, store.vector)
            if score > best_score:
                best_score = score
                best = store
        return best

    def store(self, question: str, mapping: dict[tuple, str]) -> dict[tuple, str]:
        """Record (or extend) the store for ``question``; returns it."""
        with self._lock:
            for existing in self._stores:
                if existing.question == question:
                    existing.mapping.update(mapping)
                    return existing.mapping
            store = _Store(
                question=question, vector=embed(question), mapping=dict(mapping)
            )
            self._stores.append(store)
            return store.mapping

    def __len__(self) -> int:
        with self._lock:
            return len(self._stores)
