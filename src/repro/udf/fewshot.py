"""Similarity-based few-shot selection for hybrid query UDFs.

Section 5.4: "for HQ UDFs we curated a list of question-answer pairs for
each database, and then BlendSQL selects relevant examples based on
similarity metrics (e.g. cosine similarity using a sentence transformer)".

Offline we replace the sentence transformer with a deterministic hashed
bag-of-words embedding; cosine similarity over it still ranks
demonstrations about the *same attribute* first, which is all the
selection needs to achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.oracle import KnowledgeOracle
from repro.retrieval.embedding import cosine_similarity, embed
from repro.swan.base import World
from repro.swan.worlds.util import det_sample

__all__ = [
    "Demonstration",
    "DemonstrationPool",
    "FewShotSelector",
    "cosine_similarity",
    "embed",
]

#: How many demonstration keys each (expansion, column) contributes.
_KEYS_PER_COLUMN = 3


@dataclass(frozen=True)
class Demonstration:
    """One curated question/key/answer triple."""

    question: str
    key_display: str
    answer: str


class DemonstrationPool:
    """The per-database demonstration pool, derived from the world truth.

    For every generated column we phrase a canonical question from its
    description and sample a few keys; answers come from the original
    database (they are "static examples randomly selected from the
    original database", Section 5.2).
    """

    def __init__(self, world: World) -> None:
        self.world = world
        oracle = KnowledgeOracle(world)
        self.demonstrations: list[Demonstration] = []
        for expansion in world.expansions:
            keys = sorted(world.truth[expansion.name].keys())
            for column in expansion.columns:
                question = f"Provide the {column.description.lower()} for the given key."
                count = min(_KEYS_PER_COLUMN, len(keys))
                sample = det_sample(
                    keys, count, "udf-demos", world.name, expansion.name, column.name
                )
                for key in sample:
                    truth = world.truth_value(expansion.name, key, column.name)
                    self.demonstrations.append(
                        Demonstration(
                            question=question,
                            key_display=" | ".join(str(part) for part in key),
                            answer=oracle.format_value(truth, column),
                        )
                    )

    def __len__(self) -> int:
        return len(self.demonstrations)


class FewShotSelector:
    """Selects the most similar demonstrations for a map/QA question.

    Selections are cached per ``(question, count)`` — selection is
    deterministic, and a scaled run asks the same question for thousands
    of keys, so re-embedding and re-ranking the pool per key is pure
    overhead.
    """

    def __init__(self, pool: DemonstrationPool) -> None:
        self.pool = pool
        self._cache: dict[tuple[str, int], list[Demonstration]] = {}
        self._vectors = [
            embed(f"{demo.question} {demo.key_display}")
            for demo in pool.demonstrations
        ]

    def select(self, question: str, count: int) -> list[Demonstration]:
        """Top ``count`` demonstrations by cosine similarity to ``question``."""
        if count <= 0 or not self.pool.demonstrations:
            return []
        cached = self._cache.get((question, count))
        if cached is not None:
            return list(cached)
        query = embed(question)
        scored = sorted(
            range(len(self._vectors)),
            key=lambda i: (-cosine_similarity(query, self._vectors[i]), i),
        )
        selected = [self.pool.demonstrations[i] for i in scored[:count]]
        self._cache[(question, count)] = list(selected)
        return selected
