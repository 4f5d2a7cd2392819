"""The Database wrapper around sqlite3.

One :class:`Database` owns one SQLite connection (file-backed or
in-memory).  It is deliberately small: execute/query/insert plus the
handful of conveniences the rest of the library needs — schema creation
from :class:`~repro.sqlengine.schema.TableSchema`, bulk inserts, temp
tables for the hybrid executor, cloning (for per-experiment isolation),
and introspection.
"""

from __future__ import annotations

import sqlite3
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import ExecutionError, SchemaError
from repro.sqlengine.results import ResultSet
from repro.sqlengine.schema import DatabaseSchema, TableSchema


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


#: rows per executemany chunk for bulk inserts — large enough to amortize
#: statement overhead, small enough that generated row streams (HQDL
#: materialization, big expansion tables) never materialize in full
INSERT_CHUNK_SIZE = 500


def _chunked(
    rows: Iterable[Sequence[object]], size: int
) -> Iterator[list[Sequence[object]]]:
    """Fixed-size chunks of a row iterable, without materializing it."""
    iterator = iter(rows)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


class Database:
    """A SQLite database with a typed, convenient surface.

    Usage::

        with Database.in_memory() as db:
            db.create_table(schema)
            db.insert_rows("t", ["a", "b"], rows)
            result = db.query("SELECT * FROM t")
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        self.connection = sqlite3.connect(self.path)
        self.connection.execute("PRAGMA foreign_keys = OFF")

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def in_memory(cls) -> "Database":
        return cls(":memory:")

    @classmethod
    def open(cls, path: Union[str, Path]) -> "Database":
        return cls(path)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] = ()) -> None:
        """Run a statement for its side effects and commit."""
        try:
            self.connection.execute(sql, params)
            self.connection.commit()
        except sqlite3.Error as exc:
            raise ExecutionError(f"{exc} while executing: {sql[:400]}") from exc

    def executescript(self, sql: str) -> None:
        """Run several semicolon-separated statements."""
        try:
            self.connection.executescript(sql)
            self.connection.commit()
        except sqlite3.Error as exc:
            raise ExecutionError(f"{exc} while executing script") from exc

    def query(self, sql: str, params: Sequence[object] = ()) -> ResultSet:
        """Run a SELECT and return its rows."""
        try:
            cursor = self.connection.execute(sql, params)
        except sqlite3.Error as exc:
            raise ExecutionError(f"{exc} while querying: {sql[:400]}") from exc
        return ResultSet.from_cursor(cursor)

    def query_rows(self, sql: str, params: Sequence[object] = ()) -> list[tuple]:
        """Rows of a SELECT as plain tuples, skipping :class:`ResultSet`.

        The bulk-fetch path for hot loops (key fetches at scale): one
        ``fetchall`` and no per-row column bookkeeping.
        """
        try:
            return self.connection.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(f"{exc} while querying: {sql[:400]}") from exc

    def query_column(self, sql: str, params: Sequence[object] = ()) -> list[object]:
        """First column of a SELECT as a plain list."""
        return [row[0] for row in self.query(sql, params).rows]

    def query_scalar(self, sql: str, params: Sequence[object] = ()) -> object:
        """Single value of a 1x1 SELECT (None when the result is empty)."""
        return self.query(sql, params).scalar()

    # -- schema --------------------------------------------------------------

    def create_table(self, schema: TableSchema, *, if_not_exists: bool = False) -> None:
        ddl = schema.ddl()
        if if_not_exists:
            ddl = ddl.replace("CREATE TABLE", "CREATE TABLE IF NOT EXISTS", 1)
        self.execute(ddl)

    def create_schema(self, schema: DatabaseSchema) -> None:
        for table in schema.tables:
            self.create_table(table)

    def drop_table(self, name: str) -> None:
        self.execute(f"DROP TABLE IF EXISTS {_quote(name)}")

    def has_table(self, name: str) -> bool:
        count = self.query_scalar(
            "SELECT COUNT(*) FROM sqlite_master WHERE type IN ('table', 'view')"
            " AND name = ?",
            (name,),
        )
        return bool(count)

    def table_names(self) -> list[str]:
        return [
            str(name)
            for name in self.query_column(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
                " AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]

    def table_columns(self, name: str) -> list[str]:
        if not self.has_table(name):
            raise SchemaError(f"no such table: {name!r}")
        rows = self.query(f"PRAGMA table_info({_quote(name)})").rows
        return [str(row[1]) for row in rows]

    def row_count(self, name: str) -> int:
        value = self.query_scalar(f"SELECT COUNT(*) FROM {_quote(name)}")
        return int(value) if value is not None else 0

    # -- data movement -------------------------------------------------------

    def insert_rows(
        self,
        table: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[object]],
        *,
        chunk_size: int = INSERT_CHUNK_SIZE,
    ) -> int:
        """Bulk insert, streamed in fixed-size chunks; returns rows inserted.

        The row iterable is consumed lazily — one chunk in memory at a
        time — and committed once at the end, so a failed insert leaves
        the table unchanged.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        placeholders = ", ".join("?" for _ in columns)
        column_list = ", ".join(_quote(c) for c in columns)
        sql = f"INSERT INTO {_quote(table)} ({column_list}) VALUES ({placeholders})"
        inserted = 0
        try:
            for chunk in _chunked(rows, chunk_size):
                self.connection.executemany(sql, chunk)
                inserted += len(chunk)
            self.connection.commit()
        except sqlite3.Error as exc:
            self.connection.rollback()
            raise ExecutionError(f"{exc} while inserting into {table}") from exc
        return inserted

    def create_temp_table(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[object]] = (),
        *,
        chunk_size: int = INSERT_CHUNK_SIZE,
    ) -> None:
        """Create (or replace) a TEMP table and fill it in streamed chunks.

        Temp tables shadow base tables in queries on this connection, which
        is exactly what the hybrid executor wants for ingredient results.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.drop_temp_table(name)
        body = ", ".join(f"{_quote(c)} TEXT" for c in columns)
        self.execute(f"CREATE TEMP TABLE {_quote(name)} ({body})")
        self._fill_temp_table(name, len(columns), rows, chunk_size)

    def refill_temp_table(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[object]] = (),
        *,
        chunk_size: int = INSERT_CHUNK_SIZE,
    ) -> None:
        """Replace every row of an existing TEMP table; issues no DDL.

        The steady-state path of the hybrid executor's slot tables: a
        ``DELETE`` and the streamed inserts in one transaction, so the
        schema (and with it every statement SQLite has compiled on this
        connection) is left alone, and a failed refill leaves the old
        rows in place.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        try:
            self.connection.execute(f"DELETE FROM temp.{_quote(name)}")
        except sqlite3.Error as exc:
            raise ExecutionError(f"{exc} while emptying temp table {name}") from exc
        self._fill_temp_table(name, len(columns), rows, chunk_size)

    def _fill_temp_table(
        self,
        name: str,
        width: int,
        rows: Iterable[Sequence[object]],
        chunk_size: int,
    ) -> None:
        placeholders = ", ".join("?" for _ in range(width))
        sql = f"INSERT INTO temp.{_quote(name)} VALUES ({placeholders})"
        try:
            for chunk in _chunked(rows, chunk_size):
                self.connection.executemany(sql, chunk)
            self.connection.commit()
        except sqlite3.Error as exc:
            self.connection.rollback()
            raise ExecutionError(f"{exc} while filling temp table {name}") from exc

    def drop_temp_table(self, name: str) -> None:
        """Drop a TEMP table (and its indexes) if it exists."""
        self.execute(f"DROP TABLE IF EXISTS temp.{_quote(name)}")

    def create_index(
        self, table: str, columns: Sequence[str], *, name: str = ""
    ) -> str:
        """CREATE INDEX IF NOT EXISTS on ``table(columns)``; returns its name.

        Used for FK/join-key indexes at world build time and for the
        executor's temp mapping tables, whose correlated-subquery probes
        are the hot path of every rewritten hybrid query.
        """
        if not columns:
            raise ValueError("create_index requires at least one column")
        index_name = name or "idx_{}_{}".format(
            table.strip('"'), "_".join(c.strip('"') for c in columns)
        )
        column_list = ", ".join(_quote(c) for c in columns)
        self.execute(
            f"CREATE INDEX IF NOT EXISTS {_quote(index_name)} "
            f"ON {_quote(table)} ({column_list})"
        )
        return index_name

    def clone_in_memory(self) -> "Database":
        """An independent in-memory copy of this database."""
        clone = Database.in_memory()
        self.connection.backup(clone.connection)
        return clone

    def save_to(self, path: Union[str, Path]) -> None:
        """Persist this database to a file (overwriting it)."""
        target = Database.open(path)
        try:
            self.connection.backup(target.connection)
        finally:
            target.close()
