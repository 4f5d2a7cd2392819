"""The mapping store: generated values kept for reuse across queries.

Keyed by ingredient signature (kind, question, source table, key
columns), each entry maps key tuples to generated values.  A ``pairs``
planning pass fills it up front; an executor holding a store publishes
what it generates, and the query server (one store per database) each
flushed map group — real answers only, never a degraded or drifted NULL.
Readers are all-or-nothing per occurrence: when the store covers *every*
key an occurrence needs, it is answered with zero LLM calls; partial
coverage regenerates the whole occurrence, since a half-served batch
would change batching (and therefore answers).
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence


class MappingStore:
    """Thread-safe (signature → key → value) store shared across questions."""

    def __init__(self) -> None:
        self._data: dict[tuple, dict[tuple, Optional[str]]] = {}
        #: signature → key → call-id of the planning call that answered it
        self._producers: dict[tuple, dict[tuple, str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: lookups that found the signature but not every requested key
        self.partial = 0
        self.keys_served = 0

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
            if call_ids:
                self._producers.setdefault(signature, {}).update(call_ids)

    def call_ids(self, signature: tuple) -> dict[tuple, str]:
        """key → producing call-id, for provenance of served ingredients."""
        with self._lock:
            return dict(self._producers.get(signature, ()))

    def lookup(
        self, signature: tuple, keys: Sequence[tuple]
    ) -> Optional[dict[tuple, Optional[str]]]:
        """All requested keys' values, or None unless fully covered."""
        with self._lock:
            stored = self._data.get(signature)
            if stored is None:
                self.misses += 1
                return None
            if any(key not in stored for key in keys):
                self.partial += 1
                self.misses += 1
                return None
            self.hits += 1
            self.keys_served += len(keys)
            return {key: stored[key] for key in keys}

    def peek(
        self, signature: tuple, keys: Sequence[tuple]
    ) -> dict[tuple, Optional[str]]:
        """The stored subset of ``keys``, without touching hit/miss stats.

        The server's planning reads it before enqueueing, and uses it
        only when it covers every key (the rule of :meth:`lookup`).
        """
        with self._lock:
            stored = self._data.get(signature)
            if not stored:
                return {}
            return {key: stored[key] for key in keys if key in stored}

    def coverage(self, signature: tuple) -> int:
        """How many keys the store holds for one signature."""
        with self._lock:
            return len(self._data.get(signature, ()))

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
