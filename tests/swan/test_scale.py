"""Tests for world scaling: determinism, FK integrity, and the 1x no-op.

The scaler's contract (tentpole PR 6): ``scale_world`` is a pure
function of ``(world, scale)``, so two scale-10 builds are
byte-identical; every synthesized replica preserves FK integrity and PK
uniqueness; and scale 1 is exactly the current builder — the scaled
code paths must not perturb the seed benchmark.
"""

import tracemalloc

import pytest

from repro.errors import ReproError
from repro.swan.build import (
    _at_scale,
    build_curated_database,
    build_original_database,
)
from repro.swan.scale import (
    ReplicaRows,
    _column_transforms,
    _distinctive_pk_names,
    _pk_transforms,
    replica_suffix,
    scale_world,
    scaled_table_names,
)
from repro.swan.worlds import WORLD_BUILDERS

SCALE = 10


def _dump(db) -> list[str]:
    return list(db.connection.iterdump())


@pytest.fixture(scope="module", params=sorted(WORLD_BUILDERS))
def scaled(request):
    """(base world, the same world scaled 10x), one per SWAN database."""
    base = WORLD_BUILDERS[request.param]()
    return base, scale_world(base, SCALE)


class TestDeterminism:
    def test_two_builds_byte_identical(self):
        first = scale_world(WORLD_BUILDERS["superhero"](), SCALE)
        second = scale_world(WORLD_BUILDERS["superhero"](), SCALE)
        with build_original_database(first) as a, \
                build_original_database(second) as b:
            assert _dump(a) == _dump(b)
        with build_curated_database(first) as a, \
                build_curated_database(second) as b:
            assert _dump(a) == _dump(b)

    def test_scale_one_is_the_current_builder(self):
        base = WORLD_BUILDERS["superhero"]()
        assert _at_scale(base, 1) is base
        with build_original_database(base) as plain, \
                build_original_database(base, scale=1) as at_one:
            assert _dump(plain) == _dump(at_one)

    def test_rescaling_a_scaled_world_is_rejected(self, scaled):
        _, world = scaled
        with pytest.raises(ReproError, match="already scaled"):
            _at_scale(world, 100)

    def test_asking_for_the_current_scale_is_a_noop(self, scaled):
        _, world = scaled
        assert _at_scale(world, SCALE) is world


class TestIntegrityAtScale:
    def test_row_counts_multiply_for_scaled_tables(self, scaled):
        base, world = scaled
        assert world.scale == SCALE
        grew = 0
        for table, rows in base.original_rows.items():
            scaled_rows = world.original_rows[table]
            assert len(scaled_rows) in (len(rows), len(rows) * SCALE)
            grew += len(scaled_rows) == len(rows) * SCALE
        assert grew > 0, "no table grew at scale 10"

    def test_fk_integrity(self, scaled):
        _, world = scaled
        with build_original_database(world) as db:
            for table in world.original_schema.tables:
                for fk in table.foreign_keys:
                    cols = ", ".join(fk.columns)
                    refs = " AND ".join(
                        f"t.{c} = r.{rc}"
                        for c, rc in zip(fk.columns, fk.ref_columns)
                    )
                    null = " OR ".join(f"t.{c} IS NULL" for c in fk.columns)
                    orphans = db.query_scalar(
                        f"SELECT COUNT(*) FROM {table.name} t "
                        f"WHERE NOT ({null}) AND NOT EXISTS "
                        f"(SELECT 1 FROM {fk.ref_table} r WHERE {refs})"
                    )
                    assert orphans == 0, (
                        f"{orphans} orphaned rows in "
                        f"{table.name}({cols}) -> {fk.ref_table}"
                    )

    def test_pk_uniqueness(self, scaled):
        _, world = scaled
        with build_original_database(world) as db:
            for table in world.original_schema.tables:
                if not table.primary_key:
                    continue
                pk = ", ".join(table.primary_key)
                duplicates = db.query_scalar(
                    f"SELECT COUNT(*) FROM (SELECT {pk} FROM {table.name} "
                    f"GROUP BY {pk} HAVING COUNT(*) > 1)"
                )
                assert duplicates == 0, f"duplicate PKs in {table.name}"

    def test_truth_replicated_for_every_key(self, scaled):
        _, world = scaled
        for expansion in world.expansions:
            truths = world.truth[expansion.name]
            assert len(truths) % SCALE == 0
            suffix = replica_suffix(1)
            assert any(
                any(str(part).endswith(suffix) for part in key)
                for key in truths
            ), f"no replica-suffixed truth keys for {expansion.name}"


def _eager_original_rows(world, scale):
    """Every replica row as a stored tuple: the loop ``scale_world`` ran
    before its rows became views, kept here as their oracle."""
    scaled = scaled_table_names(world)
    distinctive = _distinctive_pk_names(world.original_schema)
    pk_transforms = _pk_transforms(world, scaled)
    rows = {}
    for table in world.original_schema.tables:
        base = world.original_rows.get(table.name, [])
        if table.name not in scaled:
            rows[table.name] = list(base)
            continue
        transforms = _column_transforms(
            table, world, scaled, distinctive, pk_transforms
        )
        active = [
            (index, transform)
            for index, transform in enumerate(transforms)
            if transform is not None
        ]
        scaled_rows = list(base)
        for replica in range(1, scale):
            for row in base:
                mutated = list(row)
                for index, transform in active:
                    value = mutated[index]
                    if value is not None:
                        mutated[index] = transform(replica)([value])[0]
                scaled_rows.append(tuple(mutated))
        rows[table.name] = scaled_rows
    return rows


def _eager_curated_rows(world, original_rows):
    """The curated copy ``scale_world`` used to store: a projection."""
    curated = {}
    for table in world.curated_schema.tables:
        source_names = world.original_schema.table(table.name).column_names()
        keep = [source_names.index(name) for name in table.column_names()]
        curated[table.name] = [
            tuple(row[index] for index in keep)
            for row in original_rows[table.name]
        ]
    return curated


_VIEW_CASES = {}


def _views_and_reference(database, scale):
    """(base world, scaled world, eager original rows, eager curated
    rows), cached."""
    key = (database, scale)
    if key not in _VIEW_CASES:
        base = WORLD_BUILDERS[database]()
        original = _eager_original_rows(base, scale)
        _VIEW_CASES[key] = (
            base,
            scale_world(base, scale),
            original,
            _eager_curated_rows(base, original),
        )
    return _VIEW_CASES[key]


def _probe_indexes(size, base_size):
    """Both ends, replica seams and the middle, from either side."""
    positive = {0, 1, base_size - 1, base_size, size // 2, size - 2, size - 1}
    indexes = sorted(i for i in positive if 0 <= i < size)
    return indexes + [i - size for i in indexes]


VIEW_CONFIGS = [
    (database, scale, kind)
    for scale in (2, SCALE)
    for database in sorted(WORLD_BUILDERS)
    for kind in ("original", "curated")
]


class TestRowViews:
    @pytest.mark.parametrize(
        "config", VIEW_CONFIGS, ids=[f"{d}@{s}/{k}" for d, s, k in VIEW_CONFIGS]
    )
    def test_view_matches_the_eager_rows(self, config):
        database, scale, kind = config
        base, world, original, curated = _views_and_reference(database, scale)
        views = world.original_rows if kind == "original" else world.curated_rows
        reference = original if kind == "original" else curated
        assert sorted(views) == sorted(reference)
        for table, expected in reference.items():
            view = views[table]
            assert isinstance(view, ReplicaRows)
            assert len(view) == len(expected), table
            assert list(view) == expected, table
            if not expected:
                continue
            base_size = len(base.original_rows[table])
            for index in _probe_indexes(len(expected), base_size):
                assert view[index] == expected[index], (table, index)
            stride = max(1, len(expected) // 20)
            for cut in (
                slice(3, 17), slice(None, 40), slice(-5, None),
                slice(base_size - 2, base_size + 2), slice(None, None, stride),
                slice(None, None, -stride), slice(len(expected), None),
            ):
                assert view[cut] == expected[cut], (table, cut)
            for outside in (len(expected), -len(expected) - 1):
                with pytest.raises(IndexError):
                    view[outside]
            assert view == expected and expected == view, table
            assert view != expected[:-1] and view != [()] + expected[1:]

    def test_scale_one_keeps_plain_lists(self):
        base = WORLD_BUILDERS["superhero"]()
        world = scale_world(base, 1)
        assert world is base
        assert all(type(rows) is list for rows in world.original_rows.values())

    def test_views_are_read_only(self):
        _, world, _, _ = _views_and_reference("superhero", 2)
        view = world.original_rows["superhero"]
        with pytest.raises(TypeError):
            view[0] = ()
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view["0"]


#: what ``scale_world(formula_1, 100)`` may allocate: its truth and
#: popularity maps fit; one stored copy of its rows (~138 MB) does not
FOOTPRINT_LIMIT = 8 * 10**6


def _peak_allocation(work):
    """Peak bytes ``tracemalloc`` sees while ``work()`` runs."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    def test_scaled_world_stores_no_replica_rows(self):
        base = WORLD_BUILDERS["formula_1"]()
        peak = _peak_allocation(lambda: scale_world(base, 100))
        assert peak < FOOTPRINT_LIMIT, f"{peak / 1e6:.1f} MB"

    def test_the_bound_catches_stored_rows(self):
        base = WORLD_BUILDERS["formula_1"]()

        def materialize():
            world = scale_world(base, 100)
            return list(max(world.original_rows.values(), key=len))

        assert _peak_allocation(materialize) >= FOOTPRINT_LIMIT
