"""Tests for database materialization."""

import dataclasses
import os
import threading

import pytest

from repro.swan import build
from repro.swan.benchmark import load_benchmark
from repro.swan.build import build_curated_database, build_original_database
from repro.swan.worlds import WORLD_BUILDERS

#: byte range of the SQLite header's schema cookie, which the backup API
#: bumps on every destination; the only byte a copy may differ in
SCHEMA_COOKIE = slice(40, 44)


@pytest.fixture(scope="module")
def world():
    return WORLD_BUILDERS["superhero"]()


class TestBuild:
    def test_original_has_all_tables_and_rows(self, world):
        with build_original_database(world) as db:
            assert set(db.table_names()) == set(world.original_schema.table_names())
            for table in world.original_schema.tables:
                assert db.row_count(table.name) == len(world.original_rows[table.name])

    def test_curated_drops_tables(self, world):
        with build_curated_database(world) as db:
            names = db.table_names()
            assert "publisher" not in names
            assert "hero_power" not in names
            assert "superhero" in names

    def test_curated_drops_columns(self, world):
        with build_curated_database(world) as db:
            columns = db.table_columns("superhero")
            assert "publisher_id" not in columns
            assert "superhero_name" in columns

    def test_gold_join_executes_on_original(self, world):
        with build_original_database(world) as db:
            count = db.query_scalar(
                "SELECT COUNT(*) FROM superhero s "
                "JOIN publisher p ON s.publisher_id = p.id"
            )
            assert count == len(world.original_rows["superhero"])

    def test_save_databases(self, world, tmp_path):
        from repro.sqlengine.database import Database

        curated = tmp_path / "superhero_curated.db"
        with build_curated_database(world) as db:
            db.save_to(curated)
        # the file round-trips
        with Database.open(curated) as db:
            assert db.row_count("superhero") == len(world.curated_rows["superhero"])


class TestBuildTimeIndexes:
    def _index_names(self, db):
        return set(db.query_column(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name LIKE 'idx_%'"
        ))

    def test_foreign_keys_indexed(self, world):
        with build_curated_database(world) as db:
            names = self._index_names(db)
            assert names, "expected FK indexes at world build time"
            for table in world.curated_schema.tables:
                for fk in table.foreign_keys:
                    expected = f"idx_{table.name}_{'_'.join(fk.columns)}"
                    assert expected in names

    def test_expansion_join_keys_indexed(self, world):
        with build_curated_database(world) as db:
            names = self._index_names(db)
            for expansion in world.expansions:
                if expansion.source_table not in db.table_names():
                    continue
                columns = set(db.table_columns(expansion.source_table))
                if not set(expansion.key_columns) <= columns:
                    continue
                expected = (
                    f"idx_{expansion.source_table}_"
                    f"{'_'.join(expansion.key_columns)}"
                )
                assert expected in names

    def test_original_database_also_indexed(self, world):
        with build_original_database(world) as db:
            assert self._index_names(db)


def _image(db) -> bytes:
    """The database file image, schema cookie zeroed."""
    image = bytearray(db.connection.serialize())
    image[SCHEMA_COOKIE] = bytes(4)
    return bytes(image)


def _fresh_image(world) -> bytes:
    """The image of a build from rows: a new world object forces one."""
    with build_curated_database(dataclasses.replace(world)) as db:
        return _image(db)


def _copy(world):
    """A copy from ``world``'s template (building the template first)."""
    build_curated_database(world).close()
    assert build._TEMPLATES[(world.name, world.scale)][0] is world
    return build_curated_database(world)


class TestTemplates:
    @pytest.mark.parametrize(
        "name, scale",
        [(name, 1) for name in WORLD_BUILDERS] + [("superhero", 10)],
    )
    def test_copy_equals_fresh_build(self, name, scale):
        world = load_benchmark(scale).world(name)
        with _copy(world) as db:
            copied = _image(db)
        assert copied == _fresh_image(world)

    def test_copy_differs_from_build_only_in_schema_cookie(self, superhero_world):
        with _copy(superhero_world) as db:
            copied = db.connection.serialize()
        with build_curated_database(dataclasses.replace(superhero_world)) as db:
            built = db.connection.serialize()
        assert len(copied) == len(built)
        differing = {i for i, (a, b) in enumerate(zip(copied, built)) if a != b}
        assert differing <= set(range(SCHEMA_COOKIE.start, SCHEMA_COOKIE.stop))

    def test_writes_to_a_copy_stay_in_it(self, superhero_world):
        with _copy(superhero_world) as db:
            pristine = _image(db)
            db.execute("INSERT INTO colour (id, colour) VALUES (999999, 'Plaid')")
            db.execute("CREATE TABLE hqdl_expansion (k TEXT, v TEXT)")
            db.execute("CREATE TEMP TABLE __llm_ing_0 (k TEXT, v TEXT)")
            db.insert_rows("__llm_ing_0", ["k", "v"], [("a", "b")])
        with build_curated_database(superhero_world) as db:
            assert _image(db) == pristine
            assert "hqdl_expansion" not in db.table_names()
            assert db.query_scalar("SELECT count(*) FROM sqlite_temp_master") == 0
            assert not db.query_rows("SELECT 1 FROM colour WHERE id = 999999")

    def test_writes_to_the_first_build_stay_in_it(self, superhero_world):
        world = dataclasses.replace(superhero_world)
        with build_curated_database(world) as first:
            first.execute("DELETE FROM superhero")
        with build_curated_database(world) as copy:
            assert copy.row_count("superhero") == len(world.curated_rows["superhero"])

    def test_new_world_object_gets_its_own_build(self, superhero_world):
        full = len(superhero_world.curated_rows["superhero"])
        build_curated_database(superhero_world).close()
        rows = dict(superhero_world.curated_rows)
        rows["superhero"] = rows["superhero"][:3]
        hand_built = dataclasses.replace(superhero_world, curated_rows=rows)
        with build_curated_database(hand_built) as db:
            assert db.row_count("superhero") == 3
        with build_curated_database(hand_built) as db:
            assert db.row_count("superhero") == 3
        with build_curated_database(superhero_world) as db:
            assert db.row_count("superhero") == full

    def test_concurrent_copies_are_equal(self, formula_world):
        build_curated_database(formula_world).close()
        barrier = threading.Barrier(8)
        images: list[bytes] = []

        def copy() -> None:
            barrier.wait()
            with build_curated_database(formula_world) as db:
                image = _image(db)
            images.append(image)

        threads = [threading.Thread(target=copy) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(images) == 8
        assert len(set(images)) == 1
        assert images[0] == _fresh_image(formula_world)

    def test_forked_child_starts_without_templates(self, superhero_world):
        build_curated_database(superhero_world).close()
        assert build._TEMPLATES
        pid = os.fork()
        if pid == 0:  # child: report through the exit status only
            status = 1
            try:
                if not build._TEMPLATES:
                    with build_curated_database(superhero_world) as db:
                        rows = db.row_count("superhero")
                    expected = len(superhero_world.curated_rows["superhero"])
                    status = 0 if rows == expected else 2
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert build._TEMPLATES
