"""Prepared hybrid statements: prepare once, execute many — and change nothing.

Three groups.  *Equivalence*: an executor that has seen a text before
answers exactly like a fresh one (the standing metamorphic property,
over every SWAN question).  *Slots*: an LLMMap reaches SQLite through a
lookup function — no table, no write, no mapping left bound after the
query, slots recycled on eviction (an LLMJoin does too:
``test_join_lookup.py``).  *Hazards*: the ways a statement
cache goes wrong, each pinned by the test that would have caught it.
"""

import pytest

from repro.errors import ExecutionError
from repro.llm.cache import PromptCache
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.llm.usage import UsageMeter
from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor
from repro.udf import executor as executor_module

from tests.conftest import make_model

RACE_MAP = (
    "{{LLMMap('What is the race of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}}"
)
PUB_MAP = (
    "{{LLMMap('Which comic book publisher published this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}}"
)
STATEMENTS = [
    f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = 'DC Comics'",
    f"SELECT superhero_name, {RACE_MAP} FROM superhero "
    f"WHERE {PUB_MAP} = 'Marvel Comics' AND height_cm > 180",
    f"SELECT {RACE_MAP}, COUNT(*) FROM superhero GROUP BY {RACE_MAP}",
]
GENDER_JOIN = (
    "SELECT s.superhero_name, j.value FROM superhero s JOIN "
    "{{LLMJoin('What is the gender of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}} AS j "
    "ON s.superhero_name = j.superhero_name AND s.full_name = j.full_name"
)
#: distinct ingredient occurrences (= slots) of STATEMENTS: 1 + 2 + 1
SLOTS = 4


def temp_objects(db) -> int:
    return db.query_scalar("SELECT count(*) FROM sqlite_temp_master")


def bound_lookups(db) -> list[str]:
    return [lookup.name for lookup in db.lookups if lookup.bound]


@pytest.fixture()
def db(superhero_world):
    with build_curated_database(superhero_world) as database:
        yield database


@pytest.fixture()
def executor(db, superhero_world):
    return HybridQueryExecutor(db, make_model(superhero_world), superhero_world)


# -- equivalence --------------------------------------------------------------------


def _observed(executor, meter, sql):
    """Everything an execution is allowed to show, as one comparable value.

    Not the column *names*: an unaliased ingredient in the select list
    is named by its rewritten expression, which includes the name of
    the lookup function the occurrence happened to acquire.
    """
    before = meter.total
    result, report = executor.execute_with_report(sql)
    return (
        len(result.columns),
        result.rows,
        report.llm_calls,
        report.call_sizes,
        report.keys_generated,
        report.keys_after_pushdown,
        report.degraded_batches,
        report.degraded_keys,
        meter.total - before,
    )


@pytest.mark.parametrize("pushdown", [True, False], ids=["pushdown", "full"])
@pytest.mark.parametrize("profile", ["perfect", "gpt-3.5-turbo"])
@pytest.mark.parametrize(
    "database",
    ["california_schools", "european_football", "formula_1", "superhero"],
)
def test_prepared_equals_fresh(swan, database, profile, pushdown):
    """Three executions on one executor ≡ three fresh executors.

    Each side owns one prompt cache that persists across its executions,
    so both see the same cache state before every run; the only
    difference is whether the executor has prepared the text before.
    """
    world = swan.world(database)

    def side():
        meter = UsageMeter()
        model = MockChatModel(
            KnowledgeOracle(world), get_profile(profile), meter=meter
        )
        return build_curated_database(world), model, meter, PromptCache()

    def build(db, model, cache):
        return HybridQueryExecutor(
            db, model, world, pushdown=pushdown, shots=2, cache=cache
        )

    reused_db, reused_model, reused_meter, reused_cache = side()
    fresh_db, fresh_model, fresh_meter, fresh_cache = side()
    with reused_db, fresh_db:
        reused = build(reused_db, reused_model, reused_cache)
        for question in swan.questions_for(database):
            sql = question.blend_sql
            planned = reused.plan_calls(sql)
            for _ in range(3):
                fresh = build(fresh_db, fresh_model, fresh_cache)
                assert _observed(reused, reused_meter, sql) == _observed(
                    fresh, fresh_meter, sql
                ), question.qid
            assert reused.plan_calls(sql) == planned, question.qid
        assert (reused_cache.hits, reused_cache.misses) == (
            fresh_cache.hits,
            fresh_cache.misses,
        )


# -- slots --------------------------------------------------------------------------


class TestSlots:
    def test_temp_tables_do_not_leak(self, executor, db):
        for _ in range(50):
            for sql in STATEMENTS:
                executor.execute(sql)
        # LLMMap makes no table at all, and one function per slot,
        # however often the slots are used
        assert temp_objects(db) == 0
        assert len(db.lookups) == SLOTS

    def test_steady_state_issues_no_ddl(self, executor, db):
        for sql in STATEMENTS:
            executor.execute(sql)
        statements = []
        db.connection.set_trace_callback(statements.append)
        reports = [executor.execute_with_report(sql)[1] for sql in STATEMENTS]
        db.connection.set_trace_callback(None)
        # no DDL, DELETE or INSERT, and no key fetch either: the final
        # queries and the key memo's validity reads are all that runs
        finals = [s for s in statements if not s.startswith("PRAGMA ")]
        assert finals == [r.rewritten_sql for r in reports]
        assert set(statements) - set(finals) == {
            "PRAGMA main.data_version",
            "PRAGMA main.schema_version",
        }
        # ... and the rewritten SQL of a text is one constant string
        assert [r.rewritten_sql for r in reports] == [
            executor.execute_with_report(sql)[1].rewritten_sql
            for sql in STATEMENTS
        ]

    def test_failed_request_leaks_no_rows_into_the_next(
        self, executor, db, superhero_world, monkeypatch
    ):
        """No mapping outlives its query, whether the query ran or raised."""
        sql = STATEMENTS[0]
        executor.execute(sql)  # the slot exists; it held every hero
        assert len(db.lookups) == 1
        assert bound_lookups(db) == []

        original = db.query

        def failing(text, params=()):
            if "__llm_map_" in text:
                assert bound_lookups(db) != []
                raise ExecutionError("injected between bind and final query")
            return original(text, params)

        monkeypatch.setattr(db, "query", failing)
        with pytest.raises(ExecutionError):
            executor.execute(sql)
        monkeypatch.setattr(db, "query", original)
        assert bound_lookups(db) == []

        # same text, but the predicate now selects far fewer keys
        db.execute("DELETE FROM superhero WHERE height_cm <= 190")
        result, report = executor.execute_with_report(sql)
        remaining = db.row_count("superhero")
        assert report.keys_after_pushdown == {
            "Which comic book publisher published this superhero?": remaining
        }
        assert report.keys_generated <= remaining
        assert bound_lookups(db) == []
        with build_curated_database(superhero_world) as other:
            other.execute("DELETE FROM superhero WHERE height_cm <= 190")
            fresh = HybridQueryExecutor(
                other, make_model(superhero_world), superhero_world
            )
            assert fresh.execute(sql).rows == result.rows

    def test_eviction_is_bounded_and_drops_the_slots(
        self, executor, db, monkeypatch
    ):
        """An evicted statement's slots go back to the connection for reuse."""
        monkeypatch.setattr(executor_module, "PREPARED_CACHE_SIZE", 2)
        expected = [executor.execute(sql).rows for sql in STATEMENTS]
        assert list(executor._prepared) == STATEMENTS[1:]
        # statement 0 was evicted before statement 2 ran, and statement 2
        # reused its function: 3 slots live, 3 functions registered
        assert len(db.lookups) == 3
        # an evicted text comes back on recycled slots, with the same answer
        assert executor.execute(STATEMENTS[0]).rows == expected[0]
        assert list(executor._prepared) == [STATEMENTS[2], STATEMENTS[0]]
        assert len(db.lookups) == 3
        assert temp_objects(db) == 0
        assert bound_lookups(db) == []

    def test_a_plan_outliving_its_statement_leaks_no_slot(
        self, executor, db, superhero_world, monkeypatch
    ):
        """A plan whose statement is evicted before it runs (a request
        admitted, then finalized after later texts filled the cache)
        gives back the lookup function its run acquires."""
        monkeypatch.setattr(executor_module, "PREPARED_CACHE_SIZE", 1)
        plan = executor.prepare(STATEMENTS[0])
        executor.prepare(STATEMENTS[2])
        assert list(executor._prepared) == [STATEMENTS[2]]
        result, _ = executor.run(plan, executor.generate(plan))
        with build_curated_database(superhero_world) as other:
            fresh = HybridQueryExecutor(
                other, make_model(superhero_world), superhero_world
            )
            assert result.rows == fresh.execute(STATEMENTS[0]).rows
        assert [o.lookup for o in plan.prepared.occurrences] == [None]
        assert len(db.lookups) == 1
        assert db._idle_lookups[2] == db.lookups  # released for reuse
        assert bound_lookups(db) == []


# -- hazards ------------------------------------------------------------------------


class TestHazards:
    def test_nothing_is_keyed_on_a_dead_tree(self, executor, db, monkeypatch):
        """(a) Query B must get B's keys even if its nodes reuse A's addresses.

        Same LLMMap call, different WHERE, each statement planned and
        evicted before the next: an ``id(owner)``-keyed memo that does
        not keep the tree alive hands B the key SQL of a dead A.
        """
        monkeypatch.setattr(executor_module, "PREPARED_CACHE_SIZE", 0)
        for height in range(150, 230, 2):
            sql = (
                f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = "
                f"'DC Comics' AND height_cm > {height}"
            )
            (work,) = executor.prepare(sql).work()
            assert not executor._prepared
            expected = db.query_rows(
                "SELECT DISTINCT superhero_name, full_name FROM superhero "
                f"NOT INDEXED WHERE height_cm > {height}"
            )
            assert work.keys == [tuple(map(str, row)) for row in expected]

    def test_the_cache_is_per_executor(self, superhero_world):
        """(b) Executors differing in ``pushdown`` share no preparation.

        They do share the connection, so each must also read its own
        mappings: rows equal those of executors on separate databases.
        """
        sql = STATEMENTS[1]
        model = make_model(superhero_world)
        with build_curated_database(superhero_world) as alone:
            expected = HybridQueryExecutor(alone, model, superhero_world).execute(
                sql
            ).rows
        with build_curated_database(superhero_world) as db:
            narrow = HybridQueryExecutor(db, model, superhero_world, pushdown=True)
            wide = HybridQueryExecutor(db, model, superhero_world, pushdown=False)
            for _ in range(2):
                pushed_result, pushed_report = narrow.execute_with_report(sql)
                full_result, full_report = wide.execute_with_report(sql)
                pushed = pushed_report.keys_after_pushdown
                full = full_report.keys_after_pushdown
                assert set(pushed) == set(full)
                assert all(pushed[q] < full[q] for q in pushed)
                assert pushed_result.rows == full_result.rows == expected
            assert narrow._prepared[sql] is not wide._prepared[sql]

    def test_the_batch_path_keeps_no_prompt_memo(
        self, executor, monkeypatch
    ):
        """(c) ``_generate_mapping`` assembles every prompt it dispatches.

        Texts do repeat in a batch run: a ``udf_cold`` pass renders
        31,771 map prompts for 15,637 paid map calls, and 51 of its 124
        mappings repeat an earlier (call, keys) pair of the same
        executor.  But a prompt or mapping memo here would be one more
        store of generated values beside the prompt cache and the
        mapping store; that reuse belongs to those two, to be folded into
        one.  The memos live on the serving flush path, bounded.
        """
        built = []
        original = executor.map_prompt

        def counting(call, batch):
            built.append(tuple(batch))
            return original(call, batch)

        monkeypatch.setattr(executor, "map_prompt", counting)
        executor.execute(STATEMENTS[0])
        first = len(built)
        executor.execute(STATEMENTS[0])
        assert first > 0 and len(built) == 2 * first

    @pytest.mark.parametrize(
        "kept, borrowed",
        [
            (
                STATEMENTS[0],
                f"SELECT superhero_name FROM superhero WHERE {RACE_MAP} = 'Human'",
            ),
            (GENDER_JOIN, GENDER_JOIN + " WHERE s.height_cm > 180"),
        ],
        ids=["map", "join"],
    )
    def test_executors_sharing_a_connection_share_no_slot(
        self, superhero_world, kept, borrowed
    ):
        """(d) Slot names come from the connection, not the executor.

        With per-executor counters, B's statement would take the name of
        A's slot and register its own function over it, so A's next
        execution of its text would read B's mapping.
        """
        model = make_model(superhero_world)

        def separately(text):
            with build_curated_database(superhero_world) as alone:
                executor = HybridQueryExecutor(alone, model, superhero_world)
                return executor.execute(text).rows

        expected, expected_borrowed = separately(kept), separately(borrowed)
        with build_curated_database(superhero_world) as db:
            a = HybridQueryExecutor(db, model, superhero_world)
            b = HybridQueryExecutor(db, model, superhero_world)
            assert a.execute(kept).rows == expected
            assert b.execute(borrowed).rows == expected_borrowed
            assert a.execute(kept).rows == expected
            assert b.execute(borrowed).rows == expected_borrowed
            assert a.execute(kept).rows == expected
