"""The mapping store: generated values kept for reuse across queries.

Keyed by ingredient signature (kind, question, source table, key
columns), each entry maps key tuples to generated values.  A ``pairs``
planning pass fills it up front; an executor holding a store publishes
what it generates, and the query server (one store per database) each
flushed map group — real answers only, never a degraded or drifted NULL.
Readers are served per key: :meth:`MappingStore.lookup` and
:meth:`MappingStore.peek` return the stored subset of the keys asked
for, so an occurrence the store fully covers costs no LLM call and a
partly covered one pays only for the keys it lacks.

A store built with ``rewrite=True`` also answers the query rewriting the
paper proposes (Sections 4.3 and 5.5): BlendSQL's prompt-keyed cache
cannot reuse generations across semantically equal but differently
phrased questions ("Is the superhero from the Marvel Universe?" vs
"Does the hero come from Marvel?").  :meth:`MappingStore.rewrite_lookup`
reuses values per key — the signature's own stored values first, else
those of the stored question most similar by embedding cosine, once one
cheap LLM call has confirmed the two questions are equivalent — so only
the missing keys reach the model.  The store makes that call through the
caller's paying function, so it is dispatched, deadlined and counted like
any other call of the query.  The equivalence calls cost tokens, so the
net saving is an empirical question, which
``benchmarks/bench_future_semantic_cache.py`` measures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.llm.intent import (
    EQUIVALENCE_MARKER,
    FIRST_QUESTION_MARKER,
    SECOND_QUESTION_MARKER,
    EquivalenceIntent,
    Prompt,
    inert,
)
from repro.udf.fewshot import cosine_similarity, embed

#: Stored questions at or below this cosine similarity are not even worth
#: an equivalence check.
SHORTLIST_THRESHOLD = 0.3

#: pays for one prompt under a label; the completion text, or None when
#: the call was skipped or failed
Pay = Callable[[Prompt, str], Optional[str]]


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


def _shape(signature: tuple) -> tuple:
    """A signature without its question: kind, source table, key columns."""
    kind, _question, *source = signature
    return (kind, *source)


@dataclass
class RewriteStats:
    """Counters of one store's rewrite lookups."""

    #: lookups the signature's own stored values answered
    exact_hits: int = 0
    #: lookups an equivalent stored question answered
    rewrites: int = 0
    #: equivalence calls that answered no
    rejected_rewrites: int = 0
    #: lookups that reused nothing (rejected ones included)
    misses: int = 0
    #: keys served from stored values
    keys_reused: int = 0


class MappingStore:
    """Thread-safe (signature → key → value) store shared across questions.

    The equivalence call of a rewrite lookup is made *outside* the lock:
    a slow model must not serialize unrelated readers and writers.
    """

    def __init__(self, *, rewrite: bool = False) -> None:
        self._data: dict[tuple, dict[tuple, Optional[str]]] = {}
        #: signature → key → call-id of the planning call that answered it
        self._producers: dict[tuple, dict[tuple, str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: lookups that found the signature but not every requested key
        self.partial = 0
        self.keys_served = 0
        #: off, :meth:`rewrite_lookup` reuses nothing: a plain store serves
        #: only the keys it holds for the signature itself
        self._rewrite = rewrite
        #: signature → embedding of its question, kept only when rewriting
        self._vectors: dict[tuple, dict[str, float]] = {}
        self.rewrite_stats = RewriteStats()

    def put(
        self,
        signature: tuple,
        mapping: dict[tuple, Optional[str]],
        *,
        call_ids: Optional[dict[tuple, str]] = None,
    ) -> None:
        """Merge answers for one signature (later puts win per key)."""
        with self._lock:
            self._data.setdefault(signature, {}).update(mapping)
            if self._rewrite and signature not in self._vectors:
                self._vectors[signature] = embed(signature[1])
            if call_ids:
                self._producers.setdefault(signature, {}).update(call_ids)

    def call_ids(self, signature: tuple) -> dict[tuple, str]:
        """key → producing call-id, for provenance of served ingredients."""
        with self._lock:
            return dict(self._producers.get(signature, ()))

    def lookup(
        self, signature: tuple, keys: Sequence[tuple]
    ) -> dict[tuple, Optional[str]]:
        """The stored subset of ``keys`` (empty on a miss), counted.

        A hit covers every key; any other lookup is a miss, and a
        *partial* one when the signature is stored but lacks some key.
        """
        with self._lock:
            served = self._covered(signature, keys)
            if len(served) == len(keys) and signature in self._data:
                self.hits += 1
            else:
                self.misses += 1
                if signature in self._data:
                    self.partial += 1
            self.keys_served += len(served)
            return served

    def _covered(
        self, signature: tuple, keys: Sequence[tuple]
    ) -> dict[tuple, Optional[str]]:
        """The stored subset of ``keys`` under ``signature``; caller locks."""
        stored = self._data.get(signature)
        if not stored:
            return {}
        return {key: stored[key] for key in keys if key in stored}

    def rewrite_lookup(
        self, signature: tuple, keys: Sequence[tuple], pay: Pay
    ) -> dict[tuple, Optional[str]]:
        """The stored subset of ``keys`` under query rewriting.

        The signature's own values when it has any entry; else those of
        the best stored question above :data:`SHORTLIST_THRESHOLD`,
        once one ``udf:rewrite`` call paid through ``pay`` confirms it
        asks the same thing (a skipped or failed call confirms nothing:
        the rewrite counts as rejected).  Only signatures of the same
        kind, source table and key columns are candidates: the same key
        tuple in another table may name another entity.  Empty on a
        miss, a rejected rewrite, or a store built without ``rewrite``.
        """
        if not self._rewrite:
            return {}
        question = signature[1]
        with self._lock:
            if signature in self._data:
                self.rewrite_stats.exact_hits += 1
                return self._reuse(signature, keys)
            candidate = self._best_candidate(signature)
            if candidate is None:
                self.rewrite_stats.misses += 1
                return {}
        answer = pay(equivalence_prompt(question, candidate[1]), "udf:rewrite")
        with self._lock:
            if answer is not None and answer.strip().lower().startswith("yes"):
                self.rewrite_stats.rewrites += 1
                return self._reuse(candidate, keys)
            self.rewrite_stats.rejected_rewrites += 1
            self.rewrite_stats.misses += 1
            return {}

    def _reuse(
        self, signature: tuple, keys: Sequence[tuple]
    ) -> dict[tuple, Optional[str]]:
        reused = self._covered(signature, keys)
        self.rewrite_stats.keys_reused += len(reused)
        return reused

    def _best_candidate(self, signature: tuple) -> Optional[tuple]:
        vector = embed(signature[1])
        shape = _shape(signature)
        best: Optional[tuple] = None
        best_score = SHORTLIST_THRESHOLD
        for other, stored in self._vectors.items():
            if _shape(other) != shape:
                continue
            score = cosine_similarity(vector, stored)
            if score > best_score:
                best_score = score
                best = other
        return best

    def peek(
        self, signature: tuple, keys: Sequence[tuple]
    ) -> dict[tuple, Optional[str]]:
        """The stored subset of ``keys``, without touching hit/miss stats.

        The server's planning serves it before enqueueing only the rest
        (the rule of :meth:`lookup`).
        """
        with self._lock:
            return self._covered(signature, keys)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def total_keys(self) -> int:
        with self._lock:
            return sum(len(m) for m in self._data.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "signatures": len(self._data),
                "keys": sum(len(m) for m in self._data.values()),
                "hits": self.hits,
                "misses": self.misses,
                "partial": self.partial,
                "keys_served": self.keys_served,
            }
