"""The Database wrapper around sqlite3.

One :class:`Database` owns one SQLite connection (file-backed or
in-memory).  It is deliberately small: execute/query/insert plus the
handful of conveniences the rest of the library needs — schema creation
from :class:`~repro.sqlengine.schema.TableSchema`, bulk inserts, lookup
functions and memoized key fetches for the hybrid executor, cloning
(for per-experiment isolation), and introspection.
"""

from __future__ import annotations

import itertools
import sqlite3
from collections import OrderedDict
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import ExecutionError, SchemaError
from repro.sqlengine.results import ResultSet
from repro.sqlengine.schema import DatabaseSchema, TableSchema


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


#: rows per executemany chunk for bulk inserts — large enough to amortize
#: statement overhead, small enough that generated row streams (HQDL
#: materialization, big expansion tables) never materialize in full
INSERT_CHUNK_SIZE = 500
#: key-fetch results kept per connection, least recently used evicted
#: first (SWAN's questions have 32 distinct key-fetch texts, 12 without
#: pushdown)
KEY_MEMO_SIZE = 256


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


#: what an unbound lookup answers from: nothing (never written to)
_UNBOUND: Mapping[tuple, Optional[str]] = {}


class LookupFunction:
    """A scalar SQL function answering from a swappable Python mapping.

    Registered on its connection once, under a name unique to that
    connection; each use binds a mapping of ``str()``-ed key tuples to
    values, and unbinds it after.  A call with any NULL argument is NULL,
    otherwise the value bound for ``tuple(str(a) for a in args)`` — the
    same ``str()`` the hybrid executor applies to the key tuples it
    fetches — or NULL when there is none.
    """

    __slots__ = ("name", "width", "mapping")

    def __init__(self, name: str, width: int) -> None:
        self.name = name
        self.width = width
        self.mapping = _UNBOUND

    @property
    def bound(self) -> bool:
        return self.mapping is not _UNBOUND

    def bind(self, mapping: Mapping[tuple, Optional[str]]) -> None:
        self.mapping = mapping

    def unbind(self) -> None:
        """Drop the mapping, so it can be freed as soon as its user is done."""
        self.mapping = _UNBOUND

    def _one(self, value: object) -> Optional[str]:
        # the common single-column key, without a generator per row
        if value is None:
            return None
        return self.mapping.get((str(value),))

    def _many(self, *values: object) -> Optional[str]:
        if None in values:
            return None
        return self.mapping.get(tuple(map(str, values)))


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
        #: numbers the executor's lookup functions; one counter per
        #: connection, so two executors sharing it never pick the same name
        self._names = itertools.count()
        #: every lookup function registered on the connection, and the
        #: released ones by width, ready for reuse
        self.lookups: list[LookupFunction] = []
        self._idle_lookups: dict[int, list[LookupFunction]] = {}
        #: key-fetch SQL -> its str()-ed rows, least recently used first;
        #: valid while :meth:`_data_token` reads ``_key_token``
        self._key_memo: OrderedDict[str, list[tuple[str, ...]]] = OrderedDict()
        self._key_token: Optional[tuple[int, int, int]] = None

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

    def fetch_keys(self, sql: str, *, reuse: bool = True) -> list[tuple[str, ...]]:
        """Rows of a key-fetch SELECT with every value ``str()``-ed.

        Memoized by SQL text until the connection's data changes (see
        :meth:`_data_token`), so each distinct fetch runs once between
        writes however many executors, dry runs or requests ask for it.
        ``reuse=False`` is for SQL whose rows may change while the data
        does not (``random()``, ``'now'``, a user function): it runs on
        every call and is never stored; so does any fetch inside an open
        transaction, whose rows a rollback may yet take back.  Every
        call returns a new list over shared tuples, so a caller may
        change its list freely.
        """
        if not reuse or self.connection.in_transaction:
            return self._str_rows(sql)
        token = self._data_token()
        memo = self._key_memo
        if token != self._key_token:
            memo.clear()
            self._key_token = token
        keys = memo.get(sql)
        if keys is None:
            keys = memo[sql] = self._str_rows(sql)
            if len(memo) > KEY_MEMO_SIZE:
                memo.popitem(last=False)
        else:
            memo.move_to_end(sql)
        return list(keys)

    def _str_rows(self, sql: str) -> list[tuple[str, ...]]:
        return [tuple(map(str, row)) for row in self.query_rows(sql)]

    def _data_token(self) -> tuple[int, int, int]:
        """What changes whenever a key fetch could read different rows.

        ``total_changes`` counts every row this connection inserted,
        updated or deleted, committed or not (the hybrid executor writes
        none); ``schema_version`` moves on DDL (a table dropped and recreated empty); ``data_version`` on
        commits by other connections to the same file.
        """
        connection = self.connection
        return (
            connection.total_changes,
            connection.execute("PRAGMA main.data_version").fetchone()[0],
            connection.execute("PRAGMA main.schema_version").fetchone()[0],
        )

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

    # -- lookup functions ----------------------------------------------------

    def acquire_lookup(self, width: int) -> LookupFunction:
        """An unbound :class:`LookupFunction` of ``width`` arguments.

        A released one is reused when there is one.  Otherwise a new one
        is registered; none is ever unregistered or redefined, because
        either would expire every statement compiled on the connection.
        """
        idle = self._idle_lookups.get(width)
        if idle:
            return idle.pop()
        lookup = LookupFunction(f"__llm_map_{next(self._names)}", width)
        self.connection.create_function(
            lookup.name,
            width,
            lookup._one if width == 1 else lookup._many,
            deterministic=True,
        )
        self.lookups.append(lookup)
        return lookup

    def release_lookup(self, lookup: LookupFunction) -> None:
        """Unbind a lookup function and keep it for the next acquire."""
        lookup.unbind()
        self._idle_lookups.setdefault(lookup.width, []).append(lookup)

    def create_index(
        self, table: str, columns: Sequence[str], *, name: str = ""
    ) -> str:
        """CREATE INDEX IF NOT EXISTS on ``table(columns)``; returns its name.

        Used for FK/join-key indexes at world build time.
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
