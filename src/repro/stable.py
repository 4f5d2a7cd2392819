"""Deterministic pseudo-random draws shared by every layer.

A leaf module (no ``repro.*`` imports) so that :mod:`repro.obs`,
:mod:`repro.serve` and :mod:`repro.llm` can all draw from it without
importing each other.
"""

from __future__ import annotations

import hashlib


def stable_uniform(*parts: object) -> float:
    """A deterministic pseudo-uniform draw in [0, 1) from the parts."""
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
