"""Deterministic helpers shared by the world generators.

Worlds must be bit-identical across runs and platforms, so all
"randomness" comes from :mod:`hashlib`-based draws, never from
:mod:`random`'s global state.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from typing import Sequence, TypeVar

T = TypeVar("T")


def det_uniform(*parts: object) -> float:
    """Deterministic pseudo-uniform draw in [0, 1)."""
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def det_int(low: int, high: int, *parts: object) -> int:
    """Deterministic integer in [low, high] inclusive."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    span = high - low + 1
    return low + int(det_uniform("int", *parts) * span) % span


def det_choice(options: Sequence[T], *parts: object) -> T:
    """Deterministically pick one element."""
    if not options:
        raise ValueError("det_choice on an empty sequence")
    return options[det_int(0, len(options) - 1, "choice", *parts)]


def det_sample(options: Sequence[T], count: int, *parts: object) -> list[T]:
    """Deterministically pick ``count`` distinct elements, order-stable.

    The ``count`` indices with the lowest ``det_uniform("sample", i,
    *parts)`` draws win, ties going to the lower index.  Built for large
    pools: the hash payload for index ``i`` is the exact byte string
    :func:`det_uniform` would build, only the constant suffix is encoded
    once instead of per index, and ``heapq.nsmallest`` (documented as
    equivalent to ``sorted(...)[:n]``, stable tie order included)
    replaces a full sort over all draws.  Draws are compared as the
    same ``/ 2**64`` floats ``det_uniform`` returns, so even
    precision-collapsed ties resolve identically.
    """
    if count > len(options):
        raise ValueError(f"cannot sample {count} from {len(options)} options")
    suffix = (
        ("\x1f" + "\x1f".join(str(p) for p in parts)).encode("utf-8")
        if parts
        else b""
    )
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    draws = [
        from_bytes(sha256(b"sample\x1f%d%s" % (i, suffix)).digest()[:8], "big")
        / 2**64
        for i in range(len(options))
    ]
    chosen = sorted(
        heapq.nsmallest(count, range(len(options)), key=draws.__getitem__)
    )
    return [options[i] for i in chosen]


def det_shuffle(options: Sequence[T], *parts: object) -> list[T]:
    """A deterministic permutation of the sequence."""
    return sorted(options, key=lambda item: det_uniform("shuffle", item, *parts))


_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(text: str, separator: str = "") -> str:
    """Lower-case, strip non-alphanumerics — for generated URLs and refs."""
    lowered = text.lower()
    parts = [p for p in _SLUG_RE.split(lowered) if p]
    return separator.join(parts)
