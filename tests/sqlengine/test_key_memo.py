"""The connection's key memo: a repeated key fetch reads what a fresh one would.

Three groups.  *Property*: over every SWAN key fetch, memoized keys equal
a fresh ``str()``-ed fetch, first time and on a repeat.  *Invalidation*:
every way this connection, or another one, can change the rows a fetch
reads expires the memo.  *Isolation and bounds*: SQL that calls a
function is never reused, callers cannot corrupt the memo, and it stays
bounded.
"""

import sqlite3

import pytest

from repro.llm import ScriptedClient
from repro.sqlengine import database as database_module
from repro.sqlengine.database import Database
from repro.sqlparser import parse
from repro.swan import load_benchmark
from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor
from repro.udf.pushdown import calls_no_function

KEYS = 'SELECT DISTINCT "a" FROM "t" NOT INDEXED WHERE ("a" > 1)'
PUB_MAP = (
    "{{LLMMap('Which comic book publisher published this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}}"
)


def fresh(db, sql):
    return [tuple(map(str, row)) for row in db.query_rows(sql)]


@pytest.fixture()
def db():
    database = Database.in_memory()
    database.execute("CREATE TABLE t (a INTEGER)")
    database.insert_rows("t", ["a"], [(1,), (2,), (3,)])
    yield database
    database.close()


@pytest.fixture()
def fetched(db, monkeypatch):
    """Every SQL text ``db`` runs through ``query_rows``, in order."""
    texts = []
    original = db.query_rows

    def counting(sql, params=()):
        texts.append(sql)
        return original(sql, params)

    monkeypatch.setattr(db, "query_rows", counting)
    return texts


# -- property -----------------------------------------------------------------------


def _key_fetches(executor, sql):
    """The key SQL of each occurrence execution would fetch keys for."""
    return [
        (occurrence.key_sql, occurrence)
        for occurrence, _ in executor.prepare(sql).steps
        if occurrence.call.kind != "LLMQA"
    ]


@pytest.mark.parametrize("pushdown", [True, False], ids=["pushdown", "full"])
@pytest.mark.parametrize(
    "database, scale",
    [
        ("california_schools", 1),
        ("european_football", 1),
        ("formula_1", 1),
        ("superhero", 1),
        ("superhero", 10),
    ],
)
def test_memoized_keys_equal_a_fresh_fetch(database, scale, pushdown):
    swan = load_benchmark(scale)
    world = swan.world(database)
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(
            db, ScriptedClient([]), world, pushdown=pushdown
        )
        seen = 0
        for question in swan.questions_for(database):
            for sql, occurrence in _key_fetches(executor, question.blend_sql):
                # no SWAN pushed predicate calls a function
                assert occurrence.key_reusable, question.qid
                expected = fresh(db, sql)
                assert db.fetch_keys(sql) == expected, question.qid
                assert db.fetch_keys(sql) == expected, question.qid
                seen += 1
        assert seen


# -- invalidation -------------------------------------------------------------------


class TestInvalidation:
    def test_a_repeat_runs_no_sql(self, db, fetched):
        assert db.fetch_keys(KEYS) == [("2",), ("3",)]
        assert db.fetch_keys(KEYS) == [("2",), ("3",)]
        assert fetched == [KEYS]

    @pytest.mark.parametrize("commit", [True, False], ids=["commit", "open"])
    def test_raw_dml_on_the_connection(self, db, commit):
        db.fetch_keys(KEYS)
        db.connection.execute("INSERT INTO t VALUES (4)")
        if commit:
            db.connection.commit()
        assert db.fetch_keys(KEYS) == [("2",), ("3",), ("4",)]
        if not commit:
            db.connection.rollback()
            assert db.fetch_keys(KEYS) == [("2",), ("3",)]

    def test_database_execute(self, db):
        db.fetch_keys(KEYS)
        db.execute("DELETE FROM t WHERE a = 3")
        assert db.fetch_keys(KEYS) == [("2",)]

    def test_table_dropped_and_recreated_empty(self, db):
        """No row changes at all: only the schema version moves."""
        db.fetch_keys(KEYS)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (a INTEGER)")
        assert db.fetch_keys(KEYS) == []

    def test_another_connection_commits_to_the_file(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        with Database.open(path) as db:
            db.execute("CREATE TABLE t (a INTEGER)")
            db.insert_rows("t", ["a"], [(1,), (2,)])
            assert db.fetch_keys(KEYS) == [("2",)]
            other = sqlite3.connect(path)
            try:
                other.execute("INSERT INTO t VALUES (5)")
                other.commit()
            finally:
                other.close()
            assert db.fetch_keys(KEYS) == [("2",), ("5",)]

    def test_a_materialized_view_is_written(self, db):
        """A real table of generated values, grown on this connection."""
        db.execute('CREATE TABLE "llm_view" ("k0" TEXT, "v" TEXT)')
        db.insert_rows("llm_view", ["k0", "v"], [("1", "x")])
        sql = 'SELECT DISTINCT "k0" FROM "llm_view" NOT INDEXED'
        assert db.fetch_keys(sql) == [("1",)]
        db.insert_rows("llm_view", ["k0", "v"], [("2", "y"), ("3", "z")])
        assert db.fetch_keys(sql) == [("1",), ("2",), ("3",)]


# -- isolation and bounds -----------------------------------------------------------


class TestIsolationAndBounds:
    def test_a_random_conjunct_is_fetched_every_time(self, superhero_world):
        with build_curated_database(superhero_world) as db:
            executor = HybridQueryExecutor(db, ScriptedClient([]), superhero_world)
            statements = []
            db.connection.set_trace_callback(statements.append)
            for conjunct in ("height_cm > abs(random() % 200)", "height_cm > 180"):
                sql = (
                    f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = "
                    f"'DC Comics' AND {conjunct}"
                )
                for _ in range(3):
                    executor.prepare(sql)
            db.connection.set_trace_callback(None)
        fetches = [s for s in statements if "NOT INDEXED" in s]
        assert sum("random()" in s for s in fetches) == 3
        assert sum("180" in s for s in fetches) == 1

    @pytest.mark.parametrize(
        "conjunct, reusable",
        [
            ("a > 1", True),
            ("b LIKE 'x%' OR b GLOB 'y*' OR a IN (1, 2)", True),
            ("lower(b) = 'x'", False),
            ("a > random()", False),
            ("b > CURRENT_TIMESTAMP", False),
            ("b REGEXP 'x'", False),
        ],
    )
    def test_only_function_free_conjuncts_are_reused(self, conjunct, reusable):
        where = parse(f"SELECT a FROM t WHERE {conjunct}").where
        assert calls_no_function(where) is reusable

    def test_a_non_reusable_fetch_is_never_stored(self, db, fetched):
        assert db.fetch_keys(KEYS, reuse=False) == [("2",), ("3",)]
        db.fetch_keys(KEYS, reuse=False)
        assert fetched == [KEYS, KEYS]
        assert not db._key_memo

    def test_mutating_a_returned_list_leaves_the_next_call_unchanged(self, db):
        keys = db.fetch_keys(KEYS)
        keys.append(("99",))
        keys.pop(0)
        keys.sort(reverse=True)
        assert db.fetch_keys(KEYS) == [("2",), ("3",)]
        assert db.fetch_keys(KEYS) is not db.fetch_keys(KEYS)

    def test_the_lru_bound_holds(self, db, fetched, monkeypatch):
        monkeypatch.setattr(database_module, "KEY_MEMO_SIZE", 2)
        texts = [f"{KEYS} AND ({n} = {n})" for n in range(3)]
        db.fetch_keys(texts[0])
        db.fetch_keys(texts[1])
        db.fetch_keys(texts[0])  # now the most recent
        db.fetch_keys(texts[2])  # evicts texts[1]
        assert list(db._key_memo) == [texts[0], texts[2]]
        db.fetch_keys(texts[0])
        db.fetch_keys(texts[1])
        assert fetched == [texts[0], texts[1], texts[2], texts[1]]
        assert len(db._key_memo) == 2
