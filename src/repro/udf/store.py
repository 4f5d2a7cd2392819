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

A store may also hold an *expansion face*
(:meth:`MappingStore.attach_expansion`): the cells a resident HQDL
expansion of the same database already generated, one generation serving
both pipelines (Section 5.5's reuse, which UDFs otherwise lack).  An
LLMMap whose source table and key columns are an expansion table's is
served from the column its question asks for.  Which column that is, is
judged once per signature: the candidate columns, those whose value list
is the ingredient's ``options=`` list first and then by embedding cosine
between the map question and each column's description, are put to the
same equivalence check in that order through the caller's paying
function, under the label ``udf:expansion``, until one answers yes (a
skipped or failed check, or an answer that is neither yes nor no,
decides nothing).  The build is the one producer of the cells it
holds: a malformed row (its completion resisted extraction, repair
included) is served as NULL, as HQDL reads it.  A degraded row (its call
failed) or a cell outside the ingredient's ``options=`` list is not
served, and that key is paid for as before; a multi-valued cell is
inside the list when each of its comma-separated parts is.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Optional, Sequence

from repro.llm.intent import (
    EQUIVALENCE_MARKER,
    FIRST_QUESTION_MARKER,
    SECOND_QUESTION_MARKER,
    EquivalenceIntent,
    Prompt,
    inert,
)
from repro.swan.base import KIND_MULTI, ExpansionTable
from repro.udf.fewshot import cosine_similarity, embed

#: Stored questions at or below this cosine similarity are not even worth
#: an equivalence check.
SHORTLIST_THRESHOLD = 0.3

#: the label of the expansion face's equivalence checks
EXPANSION_LABEL = "udf:expansion"

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


@dataclass(frozen=True, eq=False)
class _FaceColumn:
    """One generated column of a resident expansion, as the face serves it."""

    description: str
    vector: dict[str, float]
    #: key (every part a string) -> the extracted cell, None for a
    #: malformed row; a degraded row's key is absent
    cells: dict[tuple, Optional[str]]
    #: the values of the column's retained value list (None: no list)
    values: Optional[frozenset[str]] = None
    #: a comma-joined list of values (``KIND_MULTI``)
    multi: bool = False

    def serve(
        self, keys: Sequence[tuple], options: Optional[Collection[str]]
    ) -> dict[tuple, Optional[str]]:
        """The cells of ``keys`` the column holds, a malformed row's as
        NULL, and every other one only inside ``options`` (if given)."""
        served: dict[tuple, Optional[str]] = {}
        cells = self.cells
        allowed = None if options is None else set(options)
        for key in keys:
            if key not in cells:
                continue
            value = cells[key]
            if value is None or allowed is None:
                served[key] = value
            elif self.multi:
                if all(part.strip() in allowed for part in value.split(",")):
                    served[key] = value
            elif value in allowed:
                served[key] = value
        return served


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
        #: the expansion face: (source table, key columns) -> its columns
        self._face: dict[tuple, tuple[_FaceColumn, ...]] = {}
        #: LLMMap signature -> the column judged to answer it (None: none)
        self._verdicts: dict[tuple, Optional[_FaceColumn]] = {}
        #: LLMMap signature -> candidate columns not yet judged, best first
        self._unjudged: dict[tuple, list[_FaceColumn]] = {}
        #: equivalence checks the face made through its callers' ``pay``
        self.expansion_calls = 0
        #: signatures a check matched to a column
        self.expansion_matched = 0
        #: keys served from expansion cells
        self.expansion_keys = 0

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

    # -- the expansion face ------------------------------------------------------

    def attach_expansion(
        self,
        expansions: Sequence[ExpansionTable],
        rows: Mapping[str, Mapping[tuple, Optional[Sequence[str]]]],
        *,
        malformed: Optional[Mapping[str, Collection[tuple]]] = None,
        value_lists: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        """Serve LLMMap ingredients from a resident expansion's cells.

        ``rows`` maps each expansion table's name to its generated rows
        (key -> values in expansion column order, None for a malformed
        or degraded row), as the HQDL build extracted them: the text a
        map answer carries, not the typed values SQLite reformats.
        ``malformed`` names, per table, the None rows to serve as NULL;
        any other None row is degraded and not served.  ``value_lists``
        are the world's retained lists, which rank a column whose list an
        ingredient's ``options=`` names ahead of the others.
        """
        malformed = malformed or {}
        value_lists = value_lists or {}
        face: dict[tuple, tuple[_FaceColumn, ...]] = {}
        for expansion in expansions:
            table_rows = rows[expansion.name]
            nulls = malformed.get(expansion.name, ())
            present = [
                (tuple(str(part) for part in key), row)
                for key, row in table_rows.items()
                if row is not None or key in nulls
            ]
            columns = []
            for index, column in enumerate(expansion.columns):
                cells = {
                    key: None if row is None else row[index]
                    for key, row in present
                }
                values = value_lists.get(column.value_list or "")
                columns.append(
                    _FaceColumn(
                        column.description,
                        embed(column.description),
                        cells,
                        None if values is None else frozenset(values),
                        column.kind == KIND_MULTI,
                    )
                )
            shape = (expansion.source_table, tuple(expansion.key_columns))
            face[shape] = face.get(shape, ()) + tuple(columns)
        with self._lock:
            self._face = face
            self._verdicts.clear()
            self._unjudged.clear()

    def _judged(
        self, signature: tuple, options: Optional[Collection[str]]
    ) -> bool:
        """Whether the face has ruled on ``signature``; caller locks.

        A signature no expansion table shares a shape with is ruled on
        at once (no column); otherwise its candidates are queued for the
        equivalence check: the columns whose value list is ``options``
        first, then the best embedding match.
        """
        if signature in self._verdicts:
            return True
        if signature in self._unjudged:
            return False
        kind, question, source_table, key_columns = signature
        columns = self._face.get((source_table, key_columns), ())
        if kind != "LLMMap" or not columns:
            self._verdicts[signature] = None
            return True
        vector = embed(question)
        listed = None if options is None else frozenset(options)
        self._unjudged[signature] = sorted(
            columns,
            key=lambda c: (
                listed is None or c.values != listed,
                -cosine_similarity(vector, c.vector),
            ),
        )
        return False

    def _serve_cells(
        self,
        signature: tuple,
        keys: Sequence[tuple],
        options: Optional[Collection[str]],
    ) -> dict[tuple, Optional[str]]:
        """The judged column's servable cells of ``keys``; caller locks."""
        column = self._verdicts[signature]
        if column is None:
            return {}
        served = column.serve(keys, options)
        self.expansion_keys += len(served)
        return served

    def expansion_lookup(
        self,
        signature: tuple,
        keys: Sequence[tuple],
        pay: Pay,
        options: Optional[Collection[str]] = None,
    ) -> dict[tuple, Optional[str]]:
        """The expansion cells serving ``keys``, judging the signature first.

        Each unjudged candidate column costs one ``udf:expansion`` check
        paid through ``pay``, a column listing ``options`` first, then
        the best embedding match, until one says yes; a check that says
        no rules its column out for good, and a skipped or failed one, or
        one answering neither yes nor no (a corrupted completion), decides
        nothing (this lookup serves nothing, a later one asks again).  Once judged, the column's
        servable cells of ``keys`` are returned at no call; none when
        no column answers the signature.
        """
        while True:
            with self._lock:
                if not self._face:
                    return {}
                if self._judged(signature, options):
                    return self._serve_cells(signature, keys, options)
                column = self._unjudged[signature][0]
                self.expansion_calls += 1
            answer = pay(
                equivalence_prompt(signature[1], column.description),
                EXPANSION_LABEL,
            )
            verdict = "" if answer is None else answer.strip().lower()
            if not verdict.startswith(("yes", "no")):
                return {}  # failed, skipped or garbled: no ruling
            with self._lock:
                unjudged = self._unjudged.get(signature, [])
                if column not in unjudged:
                    continue  # another caller ruled meanwhile
                unjudged.remove(column)
                if verdict.startswith("yes"):
                    self._verdicts[signature] = column
                    self.expansion_matched += 1
                elif not unjudged:
                    self._verdicts[signature] = None
                if signature in self._verdicts:
                    del self._unjudged[signature]

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
                "expansion_calls": self.expansion_calls,
                "expansion_matched": self.expansion_matched,
                "expansion_keys": self.expansion_keys,
            }
