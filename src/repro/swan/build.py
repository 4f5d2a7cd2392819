"""Materialize SWAN worlds into SQLite databases.

Two databases exist per world:

- the **original** database (full schema) — gold queries run here;
- the **curated** database (after drops) — hybrid pipelines run here.

Both are built in memory; ``Database.save_to`` writes either to a file
for inspection.

Each world's curated database is built from rows once per process and
kept as a *template*; every later :func:`build_curated_database` call
returns a private in-memory copy made with SQLite's online backup API
(milliseconds instead of re-inserting every row).
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections.abc import Mapping, Sequence

from repro.errors import ReproError
from repro.sqlengine.database import Database
from repro.sqlengine.schema import DatabaseSchema
from repro.swan.base import World
from repro.swan.scale import scale_world

#: curated-database templates per (world name, scale) — rebuilt only when
#: the cached entry belongs to a *different* world object of the same name
#: (hand-built test worlds must never copy a benchmark world's rows)
_TEMPLATES: dict[tuple[str, int], tuple[World, sqlite3.Connection]] = {}
#: guards ``_TEMPLATES`` and every backup out of a template; held across a
#: fork so no template is mid-copy when the child forgets them
_TEMPLATES_LOCK = threading.Lock()


def _forget_templates() -> None:
    """A forked child starts with no templates (connections do not fork)."""
    _TEMPLATES.clear()
    _TEMPLATES_LOCK.release()


os.register_at_fork(
    before=_TEMPLATES_LOCK.acquire,
    after_in_parent=_TEMPLATES_LOCK.release,
    after_in_child=_forget_templates,
)


def _at_scale(world: World, scale: int) -> World:
    """``world`` synthesized at ``scale`` (relative to the base world).

    ``scale=1`` always builds the world as-is, and asking for the scale
    the world already has is a no-op; rescaling an already-scaled world
    is ambiguous and rejected.
    """
    if scale == 1 or world.scale == scale:
        return world
    if world.scale != 1:
        raise ReproError(
            f"world {world.name!r} is already scaled to {world.scale}x; "
            f"build from the base world to get {scale}x"
        )
    return scale_world(world, scale)


def _build_from_rows(
    schema: DatabaseSchema, rows: Mapping[str, Sequence[tuple]]
) -> Database:
    db = Database.in_memory()
    db.create_schema(schema)
    for table in schema.tables:
        table_rows = rows.get(table.name, [])
        if table_rows:
            db.insert_rows(table.name, table.column_names(), table_rows)
    _index_foreign_keys(db, schema)
    return db


def _index_foreign_keys(db: Database, schema: DatabaseSchema) -> None:
    """Index every FK's referencing columns (SQLite only auto-indexes PKs)."""
    for table in schema.tables:
        for fk in table.foreign_keys:
            db.create_index(table.name, fk.columns)


def _index_expansion_keys(db: Database, world: World) -> None:
    """Index the join-key columns hybrid rewrites probe on source tables.

    Every LLMMap/LLMJoin over a source table fetches DISTINCT key
    tuples and the rewritten query re-joins on them; without an index
    both are full scans per question.
    """
    for expansion in world.expansions:
        if not db.has_table(expansion.source_table):
            continue
        present = set(db.table_columns(expansion.source_table))
        if all(column in present for column in expansion.key_columns):
            db.create_index(expansion.source_table, expansion.key_columns)


def build_original_database(world: World, scale: int = 1) -> Database:
    """The full (uncurated) database for gold-query execution.

    ``scale`` > 1 synthesizes the FK-consistent larger population first
    (a no-op when ``world`` was already built at that scale).
    """
    world = _at_scale(world, scale)
    return _build_from_rows(world.original_schema, world.original_rows)


def build_curated_database(world: World, scale: int = 1) -> Database:
    """The curated database hybrid pipelines query, private to the caller.

    The first call for a world object builds it from rows and keeps a
    backup of the result as the world's template; every later call gets
    a page-for-page copy of that template.  Callers may write anything
    into their copy (HQDL materializes expansion tables into ``main``)
    without another copy seeing it.
    Identity (not equality) guards the template, so a new world object
    of the same name and scale gets its own build.
    """
    world = _at_scale(world, scale)
    key = (world.name, world.scale)
    with _TEMPLATES_LOCK:
        cached = _TEMPLATES.get(key)
        if cached is not None and cached[0] is world:
            db = Database.in_memory()
            cached[1].backup(db.connection)
            return db
        db = _build_from_rows(world.curated_schema, world.curated_rows)
        _index_expansion_keys(db, world)
        template = sqlite3.connect(
            ":memory:", check_same_thread=False, cached_statements=0
        )
        db.connection.backup(template)
        _TEMPLATES[key] = (world, template)
        return db

