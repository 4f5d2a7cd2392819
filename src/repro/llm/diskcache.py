"""SQLite-backed persistent prompt caching (cross-run reuse).

The in-memory :class:`~repro.llm.cache.PromptCache` makes repeated
prompts free *within* one harness run; every run still starts cold.
This module closes that gap: a :class:`PersistentPromptCache` stores
completions in a small SQLite file, so a warm rerun of the same
(model, shots) configuration issues **zero** new LLM calls — the
run-level analogue of the paper's Section 5.5 reuse accounting.

Design points:

- **versioned keys** — an entry is addressed by a SHA-256 digest of
  ``(SCHEMA_VERSION, model, shots, prompt)``.  Bumping
  :data:`SCHEMA_VERSION` invalidates every old entry at once, and two
  configurations never collide even inside one shared file.
- **one versioned open** — the file is opened by
  :func:`~repro.obs.ledger.open_versioned`, as the run ledger is: a
  file SQLite refuses to open (truncated write, garbage bytes) is
  discarded and recreated instead of taking the run down, and a file
  stamped by another :data:`SCHEMA_VERSION` has its table dropped and
  recreated.  A cache is an accelerator, never a dependency.
- **reads write nothing** — a hit is one ``SELECT``; each ``put``
  commits before it returns, so a stored completion survives a crash.
- **statistics** — hits, misses, stores, and evictions are counted,
  feeding the ``artifacts cache`` harness target.
- **bounded size** — an optional ``max_entries`` cap evicts the oldest
  insertions first (``rowid`` order, so eviction is deterministic and
  no read has to record anything).

:class:`PersistentClient` is the :class:`~repro.llm.client.ChatClient`
decorator over the cache.  It composes *under*
:class:`~repro.llm.cache.CachingClient`: the in-memory single-flight
layer sits in front, so concurrent workers collapse onto one disk probe
per unique prompt and disk hits cost zero tokens, exactly like memory
hits.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
from pathlib import Path
from typing import Optional, Union

from repro.llm.client import ChatClient, ChatResponse
from repro.llm.usage import Usage
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.ledger import open_versioned
from repro.obs.provenance import TIER_DISK, TIER_FRESH
from repro.obs.trace import NULL_SPAN

#: Bump to invalidate every persisted completion (key format, columns,
#: prompt protocol, or oracle changes all warrant a bump).
SCHEMA_VERSION = 2

_ENTRIES_COLUMNS = (
    "key TEXT PRIMARY KEY, completion TEXT NOT NULL, model TEXT NOT NULL,"
    " shots INTEGER NOT NULL"
)


def cache_key(model: str, shots: int, prompt: str) -> str:
    """The versioned entry key: model and shots namespace the prompt."""
    payload = "\x1f".join(
        (f"v{SCHEMA_VERSION}", model, str(shots), prompt)
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class PersistentPromptCache:
    """A prompt → completion cache persisted to one SQLite file.

    ``recovered`` is True when a corrupt file was discarded on open.
    Thread-safe: one connection guarded by one lock (the workload is
    tiny key-value operations, so a single writer is never the
    bottleneck — the LLM is).  Usable as a context manager.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._conn, self.recovered, _ = open_versioned(
            self.path, SCHEMA_VERSION, {"entries": _ENTRIES_COLUMNS}
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "PersistentPromptCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- operations ----------------------------------------------------------

    def get(self, model: str, shots: int, prompt: str) -> Optional[str]:
        """The stored completion for this configuration, or None."""
        key = cache_key(model, shots, prompt)
        with self._lock:
            row = self._conn.execute(
                "SELECT completion FROM entries WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
            return row[0]

    def put(self, model: str, shots: int, prompt: str, completion: str) -> None:
        """Store one completion, evicting the oldest past ``max_entries``."""
        key = cache_key(model, shots, prompt)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO entries (key, completion, model, shots)"
                " VALUES (?, ?, ?, ?)",
                (key, completion, model, shots),
            )
            self.stores += 1
            if self.max_entries is not None:
                over = self._count() - self.max_entries
                if over > 0:
                    cursor = self._conn.execute(
                        "DELETE FROM entries WHERE rowid IN ("
                        "  SELECT rowid FROM entries ORDER BY rowid LIMIT ?"
                        ")",
                        (over,),
                    )
                    self.evictions += cursor.rowcount
            self._conn.commit()

    def _count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        return int(row[0])

    def __len__(self) -> int:
        with self._lock:
            return self._count()

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM entries")
            self._conn.commit()
            self.hits = self.misses = self.stores = self.evictions = 0

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """A flat statistics snapshot for reports and BENCH JSON."""
        with self._lock:
            return {
                "entries": self._count(),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "recovered": self.recovered,
            }


class PersistentClient:
    """A ChatClient decorator that serves completions from disk.

    A disk hit returns the stored completion at zero token cost — the
    same accounting the in-memory cache uses, because nothing reaches the
    model.  A miss calls through and stores the completion, so the next
    run (or the next database sharing a prompt) is warm.

    Layering: put :class:`~repro.llm.cache.CachingClient` *in front* of
    this client (the executor does that automatically) so the in-memory
    single-flight layer absorbs concurrent duplicates before they reach
    the disk, and put retry/fault layers *behind* it so disk hits bypass
    both the faults and the retry budget.
    """

    def __init__(
        self,
        inner: ChatClient,
        cache: PersistentPromptCache,
        *,
        shots: int = 0,
        telemetry: Optional[Telemetry] = None,
        provenance=None,
    ) -> None:
        self.inner = inner
        self.cache = cache
        self.shots = shots
        self.model_name = inner.model_name
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        metrics = self._tel.metrics
        self._m_hits = metrics.counter("llm.cache.persistent_hits")
        self._m_misses = metrics.counter("llm.cache.persistent_misses")

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        tel = self._tel
        with (
            tel.tracer.span("cache:persistent", label=label)
            if tel.enabled
            else NULL_SPAN
        ) as span:
            cached = self.cache.get(self.model_name, self.shots, prompt)
            if cached is not None:
                self._m_hits.inc()
                if self._prov.enabled:
                    self._prov.record_tier(prompt, TIER_DISK)
                span.set("outcome", "hit")
                return ChatResponse(cached, Usage())
            self._m_misses.inc()
            span.set("outcome", "miss")
            response = self.inner.complete(prompt, label=label)
            if self._prov.enabled:
                self._prov.record_tier(prompt, TIER_FRESH)
            self.cache.put(self.model_name, self.shots, prompt, response.text)
            return response
