"""Deterministic sparse text embeddings.

The offline stand-in for the sentence-transformer embeddings the paper's
optimization discussion assumes: a bag-of-words vector with sub-linear
term weighting, compared by cosine similarity.  Shared by few-shot
demonstration selection (:mod:`repro.udf.fewshot`), the mapping store's
rewrite lookup, and the row-context retriever.
"""

from __future__ import annotations

import math
import re

_WORD_RE = re.compile(r"[a-z0-9]+")


def embed(text: str) -> dict[str, float]:
    """A sparse bag-of-words vector with sub-linear term weighting."""
    counts: dict[str, float] = {}
    for word in _WORD_RE.findall(text.lower()):
        counts[word] = counts.get(word, 0.0) + 1.0
    return {word: 1.0 + math.log(count) for word, count in counts.items()}


def cosine_similarity(left: dict[str, float], right: dict[str, float]) -> float:
    """Cosine similarity between two sparse vectors (0.0 for empty ones)."""
    if not left or not right:
        return 0.0
    smaller, larger = (left, right) if len(left) <= len(right) else (right, left)
    dot = sum(value * larger.get(word, 0.0) for word, value in smaller.items())
    norm_left = math.sqrt(sum(v * v for v in left.values()))
    norm_right = math.sqrt(sum(v * v for v in right.values()))
    if norm_left == 0.0 or norm_right == 0.0:
        return 0.0
    return dot / (norm_left * norm_right)
