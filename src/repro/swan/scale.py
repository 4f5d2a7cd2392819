"""FK-consistent world scaling (SynSQL-style row multiplication).

:func:`scale_world` synthesizes a ``scale``-times larger copy of a
:class:`~repro.swan.base.World` while preserving every invariant the
pipelines rely on:

- **replica 0 is byte-identical** to the base world, so every base
  entity (and therefore every question) resolves exactly as before;
- **foreign keys stay consistent**: integer keys are offset by a
  per-table stride, text keys get a ``~r`` suffix, and every referencing
  column — declared FK or recognized by the shared-key-name convention —
  inherits the transform of the table it points at;
- **expansion keys stay human-readable**: replica ``r`` of an entity is
  named ``"<base> (<roman r+1>)"`` ("Spider-Man (II)"), which keeps key
  tuples unique, deterministic, and parseable by the prompt protocol;
- **rows are views, not copies**: every table of a scaled world is a
  read-only :class:`ReplicaRows` over the base world's rows, which
  produces replica ``r`` of each base row when it is read, and a curated
  table is a column projection of its original table's view (curation
  is a pure column projection);
- **truth and popularity are replicated**, not mutated: both maps are
  copied under the suffixed keys, because lookups need them in O(1).

A scaled world therefore holds one copy of its rows; the replicas exist
only while a database build (or any other reader) iterates them.

Everything is a pure function of ``(world, scale)`` — no randomness —
so the same seed and scale always produce byte-identical databases.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator, Optional

from repro.errors import ReproError
from repro.sqlengine.schema import TableSchema
from repro.swan.base import World

__all__ = ["ReplicaRows", "scale_world", "scaled_table_names", "replica_suffix"]

#: one column's values mapped for one replica (``None`` stays ``None``)
ColumnMap = Callable[[Sequence[object]], list]
#: one column's transform: replica ``r`` (>= 1) -> that replica's column map
Transform = Callable[[int], ColumnMap]

#: Roman-numeral digits, largest first, for replica naming.
_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"),
    (100, "C"), (90, "XC"), (50, "L"), (40, "XL"),
    (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
)


def _roman(number: int) -> str:
    parts = []
    for value, digits in _ROMAN:
        while number >= value:
            parts.append(digits)
            number -= value
    return "".join(parts)


def replica_suffix(replica: int) -> str:
    """The key suffix of replica ``replica`` (>= 1): ``" (II)"``, ..."""
    return f" ({_roman(replica + 1)})"


def _distinctive_pk_names(schema) -> dict[str, str]:
    """Single-column PK names that identify exactly one table.

    Fact tables without declared FKs (``pit_stops``-style) reference
    their dimensions by reusing the dimension's PK column name; a name
    is only *distinctive* when one table owns it and it is not a
    generic ``id``, so ``race_id`` maps to ``races`` but ``id`` maps to
    nothing.
    """
    owners: dict[str, list[str]] = {}
    for table in schema.tables:
        if len(table.primary_key) == 1:
            owners.setdefault(table.primary_key[0], []).append(table.name)
    return {
        name: tables[0]
        for name, tables in owners.items()
        if len(tables) == 1 and name.lower() != "id"
    }


def scaled_table_names(world: World) -> set[str]:
    """Tables whose rows multiply: expansion sources plus every table
    reaching them through declared FKs or shared distinctive key names."""
    schema = world.original_schema
    distinctive = _distinctive_pk_names(schema)
    scaled = {expansion.source_table for expansion in world.expansions}
    changed = True
    while changed:
        changed = False
        for table in schema.tables:
            if table.name in scaled:
                continue
            references = any(
                fk.ref_table in scaled for fk in table.foreign_keys
            ) or any(
                column in distinctive
                and distinctive[column] in scaled
                and distinctive[column] != table.name
                for column in table.column_names()
            )
            if references:
                scaled.add(table.name)
                changed = True
    return scaled


def _offset_by(stride: int) -> Transform:
    """Integer keys: replica ``r`` adds ``r * stride``."""
    def at(replica: int) -> ColumnMap:
        offset = replica * stride
        return lambda values: [
            None if value is None else value + offset for value in values
        ]
    return at


def _suffixed(suffix_of: Callable[[int], str]) -> Transform:
    """Text keys: replica ``r`` appends ``suffix_of(r)``."""
    def at(replica: int) -> ColumnMap:
        suffix = suffix_of(replica)
        return lambda values: [
            None if value is None else f"{value}{suffix}" for value in values
        ]
    return at


_text_pk_transform = _suffixed(lambda replica: f"~{replica}")
_key_suffix_transform = _suffixed(replica_suffix)


def _pk_transforms(world: World, scaled: set[str]) -> dict[str, Transform]:
    """Per scaled table, the value transform of its single-column PK."""
    transforms: dict[str, Transform] = {}
    for table in world.original_schema.tables:
        if table.name not in scaled or len(table.primary_key) != 1:
            continue
        index = table.column_names().index(table.primary_key[0])
        values = [row[index] for row in world.original_rows.get(table.name, [])]
        if values and all(isinstance(v, int) for v in values):
            transforms[table.name] = _offset_by(max(values))
        else:
            transforms[table.name] = _text_pk_transform
    return transforms


def _column_transforms(
    table: TableSchema,
    world: World,
    scaled: set[str],
    distinctive: dict[str, str],
    pk_transforms: dict[str, Transform],
) -> list[Optional[Transform]]:
    """One transform (or None = copy) per column of ``table``.

    Precedence per column: declared FK into a scaled table, then the
    shared-distinctive-name convention, then the table's own single PK,
    then expansion key suffixing; everything else copies verbatim.
    """
    fk_targets: dict[str, str] = {}
    for fk in table.foreign_keys:
        if fk.ref_table in scaled:
            for column in fk.columns:
                fk_targets[column] = fk.ref_table
    single_pk = table.primary_key[0] if len(table.primary_key) == 1 else None
    source_keys: set[str] = set()
    for expansion in world.expansions:
        if expansion.source_table == table.name:
            source_keys.update(expansion.key_columns)
    transforms: list[Optional[Transform]] = []
    for column in table.column_names():
        if column in fk_targets:
            transforms.append(pk_transforms[fk_targets[column]])
        elif (
            column in distinctive
            and distinctive[column] in scaled
            and (distinctive[column] != table.name or column == single_pk)
        ):
            transforms.append(pk_transforms[distinctive[column]])
        elif column == single_pk:
            transforms.append(pk_transforms[table.name])
        elif column in source_keys:
            transforms.append(_key_suffix_transform)
        else:
            transforms.append(None)
    return transforms


class ReplicaRows(Sequence):
    """The rows of one table of a scaled world, produced when read.

    Row ``r * len(base) + i`` is replica ``r`` of base row ``i``: replica
    0 is the base row itself, and replica ``r`` passes each ``active``
    column's non-``None`` values through that column's transform for
    ``r``.  ``columns`` (indexes into the base rows, ``None`` for all)
    projects every row, which is how a curated table reads its original
    table's replicas.  Nothing but the base rows is stored.
    """

    __slots__ = ("_base", "_replicas", "_active", "_columns")

    def __init__(
        self,
        base: Sequence[tuple],
        replicas: int,
        active: tuple[tuple[int, Transform], ...] = (),
        columns: Optional[tuple[int, ...]] = None,
    ) -> None:
        self._base = tuple(base)
        self._replicas = replicas
        self._active = active
        self._columns = columns

    def project(self, columns: Sequence[int]) -> "ReplicaRows":
        """These rows cut to ``columns`` (indexes into this view's rows)."""
        if self._columns is not None:
            columns = [self._columns[index] for index in columns]
        kept = set(columns)
        active = tuple(pair for pair in self._active if pair[0] in kept)
        return ReplicaRows(self._base, self._replicas, active, tuple(columns))

    def __len__(self) -> int:
        return len(self._base) * self._replicas

    def __iter__(self) -> Iterator[tuple]:
        base, columns = self._base, self._columns
        first = 0
        if columns is None:
            yield from base  # replica 0 is the base rows themselves
            first = 1
        if not base or first == self._replicas:
            return
        # Column-major: each replica maps whole columns, then zip
        # reassembles the rows, one replica of the table at a time.
        base_columns = list(zip(*base, strict=True))
        for replica in range(first, self._replicas):
            replica_columns = list(base_columns)
            if replica:
                for index, transform in self._active:
                    replica_columns[index] = transform(replica)(
                        replica_columns[index]
                    )
            if columns is not None:
                replica_columns = [replica_columns[index] for index in columns]
            yield from zip(*replica_columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if not isinstance(index, int):
            raise TypeError(
                f"row indices must be integers or slices, not {type(index).__name__}"
            )
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("row index out of range")
        replica, offset = divmod(index, len(self._base))
        row = list(self._base[offset])
        if replica:
            for column, transform in self._active:
                row[column] = transform(replica)([row[column]])[0]
        if self._columns is not None:
            return tuple(row[column] for column in self._columns)
        return tuple(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, ReplicaRows)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]


def _replica_rows(
    world: World, scale: int, scaled: set[str]
) -> dict[str, ReplicaRows]:
    """One view per original table: scaled tables replicate, the rest do not."""
    distinctive = _distinctive_pk_names(world.original_schema)
    pk_transforms = _pk_transforms(world, scaled)
    rows: dict[str, ReplicaRows] = {}
    for table in world.original_schema.tables:
        base = world.original_rows.get(table.name, [])
        if table.name not in scaled:
            rows[table.name] = ReplicaRows(base, 1)
            continue
        transforms = _column_transforms(
            table, world, scaled, distinctive, pk_transforms
        )
        active = tuple(
            (index, transform)
            for index, transform in enumerate(transforms)
            if transform is not None
        )
        rows[table.name] = ReplicaRows(base, scale, active)
    return rows


def _curated_views(
    world: World, original_rows: dict[str, ReplicaRows]
) -> dict[str, ReplicaRows]:
    """Curated tables as column projections of the original views."""
    curated: dict[str, ReplicaRows] = {}
    for table in world.curated_schema.tables:
        source_names = world.original_schema.table(table.name).column_names()
        keep = [source_names.index(name) for name in table.column_names()]
        rows = original_rows[table.name]
        if keep != list(range(len(source_names))):
            rows = rows.project(keep)
        curated[table.name] = rows
    return curated


def _replicate_keyed(mapping: dict[tuple, object], scale: int, what: str):
    """Replicate a key-tuple-indexed mapping under suffixed keys.

    Replica 0 keeps the base keys (and base iteration order — the first
    ``len(mapping)`` keys of the result are exactly the base keys), so
    key order, demonstrations, and prompt bytes at the base entities are
    untouched.
    """
    replicated: dict[tuple, object] = {}
    for replica in range(scale):
        if replica == 0:
            replicated.update(mapping)
            continue
        suffix = replica_suffix(replica)
        for key, value in mapping.items():
            replicated[tuple(f"{part}{suffix}" for part in key)] = value
    if len(replicated) != len(mapping) * scale:
        raise ReproError(
            f"replica key collision while scaling {what}; "
            "base keys may not contain replica suffixes"
        )
    return replicated


def scale_world(world: World, scale: int) -> World:
    """A ``scale``-times larger copy of ``world`` (``scale=1`` is a no-op).

    Only the row population changes — schemas, expansions, value lists,
    and question semantics are untouched.  The scaled world is a new
    object whose row fields are :class:`ReplicaRows` views over the
    input world's rows; the input world is never mutated.
    """
    if scale < 1:
        raise ReproError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return world
    scaled = scaled_table_names(world)
    original_rows = _replica_rows(world, scale, scaled)
    curated_rows = _curated_views(world, original_rows)
    truth = {
        name: _replicate_keyed(mapping, scale, f"truth[{name}]")
        for name, mapping in world.truth.items()
    }
    popularity = {
        name: _replicate_keyed(mapping, scale, f"popularity[{name}]")
        for name, mapping in world.popularity.items()
    }
    return World(
        name=world.name,
        title=world.title,
        original_schema=world.original_schema,
        curated_schema=world.curated_schema,
        original_rows=original_rows,
        curated_rows=curated_rows,
        expansions=world.expansions,
        truth=truth,
        value_lists=world.value_lists,
        dropped_columns=world.dropped_columns,
        popularity=popularity,
        scale=scale,
    )
