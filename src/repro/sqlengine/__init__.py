"""SQLite storage-engine wrapper.

The paper runs everything on SQLite; this subpackage provides a typed
wrapper used by the benchmark builder, HQDL materialization, and the hybrid
query executor:

- :class:`~repro.sqlengine.database.Database` — connection lifecycle,
  queries, bulk inserts.
- :class:`~repro.sqlengine.database.LookupFunction` — a scalar SQL
  function over a swappable mapping; the hybrid executor binds each
  LLMMap's and LLMJoin's answers to one.
- :class:`~repro.sqlengine.schema.TableSchema` — declarative schema objects
  with DDL generation and introspection.
- :class:`~repro.sqlengine.results.ResultSet` — normalised query results
  with the ordered/unordered comparison the EX metric needs.
"""

from repro.sqlengine.database import Database, LookupFunction
from repro.sqlengine.results import ResultSet, results_match
from repro.sqlengine.schema import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema

__all__ = [
    "Database",
    "LookupFunction",
    "ResultSet",
    "results_match",
    "ColumnSchema",
    "TableSchema",
    "ForeignKey",
    "DatabaseSchema",
]
