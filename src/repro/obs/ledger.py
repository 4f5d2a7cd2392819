"""A persistent run ledger: every harness run, appended to SQLite.

The paper's tables are point-in-time snapshots; a growing reproduction
needs the *history* — what EX, token bill, and virtual makespan each
configuration produced on each run — so a regression (an accuracy drop,
a token blow-up, a scheduling slowdown) is caught by diffing the ledger
instead of by eyeballing BENCH JSON files.

Design:

- **one versioned open** — :func:`open_versioned` opens this ledger and
  the persistent prompt cache alike: a file SQLite refuses to open is
  discarded and recreated (``recovered``), and a file stamped by
  another :data:`LEDGER_SCHEMA_VERSION` has its tables dropped and
  recreated (``wiped``), so a version bump may change the columns and
  readers never parse rows with a stale shape.  The ledger is an
  accelerator for regression detection, never a dependency.
- **config fingerprints** — each run is stamped with a SHA-256 of its
  canonical configuration JSON, so "the same configuration" is an exact
  equality test, not a guess from CLI flags.
- **scalars + payload** — the regression-gated scalars (EX, F1, calls,
  tokens, makespan) live in typed columns; everything else (stage
  timings, counter snapshots, provenance stats) rides in one JSON
  payload column, so new diagnostics never need a schema bump.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Optional, Union

#: Bump when the row shape changes; old ledgers are wiped on open.
LEDGER_SCHEMA_VERSION = 1

_RUNS_COLUMNS = (
    "id INTEGER PRIMARY KEY AUTOINCREMENT, label TEXT NOT NULL,"
    " pipeline TEXT NOT NULL, fingerprint TEXT NOT NULL, ex REAL, f1 REAL,"
    " llm_calls INTEGER NOT NULL DEFAULT 0,"
    " input_tokens INTEGER NOT NULL DEFAULT 0,"
    " output_tokens INTEGER NOT NULL DEFAULT 0, makespan REAL,"
    " payload TEXT NOT NULL"
)


def config_fingerprint(config: dict) -> str:
    """A stable 12-hex fingerprint of one run configuration.

    Canonical JSON (sorted keys, no whitespace variance) makes the
    fingerprint independent of dict ordering and run context.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def open_versioned(
    path: Union[str, Path], version: int, tables: dict[str, str]
) -> tuple[sqlite3.Connection, bool, bool]:
    """Open a versioned SQLite store: ``(connection, recovered, wiped)``.

    ``tables`` maps each table name to its column definitions.  A file
    SQLite rejects is discarded and recreated (``recovered``).  A file
    whose ``meta`` table carries another ``version`` has those tables
    dropped and recreated with today's columns (``wiped``).  Every
    statement before the final commit is idempotent, so a crash part way
    through a wipe leaves a file the next open wipes again.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    recovered = False
    while True:
        conn = sqlite3.connect(path, check_same_thread=False)
        try:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (version INTEGER NOT NULL)"
            )
            row = conn.execute("SELECT version FROM meta").fetchone()
            wiped = row is not None and row[0] != version
            if wiped:
                for name in tables:
                    conn.execute(f"DROP TABLE IF EXISTS {name}")
                conn.execute("DELETE FROM meta")
            for name, columns in tables.items():
                conn.execute(f"CREATE TABLE IF NOT EXISTS {name} ({columns})")
            if row is None or wiped:
                conn.execute("INSERT INTO meta (version) VALUES (?)", (version,))
            conn.commit()
            return conn, recovered, wiped
        except sqlite3.Error:
            conn.close()
            if recovered:
                raise
            # a store that cannot be read is worth less than no store:
            # discard the file and start fresh rather than fail the run
            recovered = True
            path.unlink(missing_ok=True)


class RunLedger:
    """An append-only SQLite ledger of harness runs.

    Opened by :func:`open_versioned`: ``recovered`` is True when a
    corrupt file was discarded, ``wiped`` when a previous-generation
    ledger was dropped.  Every append commits before it returns.
    Thread-safe: one connection guarded by one lock.  Usable as a
    context manager.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.appends = 0
        self._lock = threading.Lock()
        self._conn, self.recovered, self.wiped = open_versioned(
            self.path, LEDGER_SCHEMA_VERSION, {"runs": _RUNS_COLUMNS}
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- writing -------------------------------------------------------------

    def append(
        self,
        *,
        label: str,
        pipeline: str,
        config: Optional[dict] = None,
        ex: Optional[float] = None,
        f1: Optional[float] = None,
        llm_calls: int = 0,
        input_tokens: int = 0,
        output_tokens: int = 0,
        makespan: Optional[float] = None,
        payload: Optional[dict] = None,
    ) -> int:
        """Append one run; returns its ledger id (monotonic per file)."""
        config = config if config is not None else {}
        record = dict(payload) if payload else {}
        record["config"] = config
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO runs (label, pipeline, fingerprint, ex, f1,"
                " llm_calls, input_tokens, output_tokens, makespan, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    label,
                    pipeline,
                    config_fingerprint(config),
                    ex,
                    f1,
                    llm_calls,
                    input_tokens,
                    output_tokens,
                    makespan,
                    json.dumps(record, sort_keys=True),
                ),
            )
            self._conn.commit()
            self.appends += 1
            return int(cursor.lastrowid)

    # -- reading -------------------------------------------------------------

    _COLUMNS = (
        "id", "label", "pipeline", "fingerprint", "ex", "f1",
        "llm_calls", "input_tokens", "output_tokens", "makespan", "payload",
    )

    def _row_to_record(self, row: tuple) -> dict:
        record = dict(zip(self._COLUMNS, row))
        record["payload"] = json.loads(record["payload"])
        return record

    def runs(
        self,
        *,
        label: Optional[str] = None,
        pipeline: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> list[dict]:
        """Matching runs in append order (oldest first)."""
        sql = f"SELECT {', '.join(self._COLUMNS)} FROM runs"
        clauses, params = [], []
        for column, value in (
            ("label", label), ("pipeline", pipeline), ("fingerprint", fingerprint)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id ASC"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._row_to_record(row) for row in rows]

    def latest(
        self,
        *,
        label: Optional[str] = None,
        pipeline: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> Optional[dict]:
        """The most recently appended matching run, or None."""
        matching = self.runs(
            label=label, pipeline=pipeline, fingerprint=fingerprint
        )
        return matching[-1] if matching else None

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
            return int(row[0])

    def stats(self) -> dict:
        """A flat snapshot for reports and BENCH JSON."""
        return {
            "runs": len(self),
            "appends": self.appends,
            "recovered": self.recovered,
            "wiped": self.wiped,
        }
