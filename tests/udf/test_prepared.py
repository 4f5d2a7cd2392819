"""Prepared hybrid statements: prepare once, execute many — and change nothing.

Three groups.  *Equivalence*: an executor that has seen a text before
answers exactly like a fresh one (the standing metamorphic property,
over every SWAN question).  *Slots*: temp tables are bounded, refilled
before every use, dropped on eviction.  *Hazards*: the ways a statement
cache goes wrong, each pinned by the test that would have caught it.
"""

import copy

import pytest

from repro.errors import ExecutionError
from repro.llm.cache import PromptCache
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.llm.usage import UsageMeter
from repro.sqlparser import parse
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
#: distinct ingredient occurrences (= slots) of STATEMENTS: 1 + 2 + 1
SLOTS = 4


def temp_objects(db) -> int:
    return db.query_scalar("SELECT count(*) FROM sqlite_temp_master")


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
    is named by its rewritten subquery, slot name included, as it
    always was by the temp-table counter.
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


class TestPreparsedStatement:
    def test_executes_like_its_text_and_is_not_mutated(self, executor, db):
        for sql in STATEMENTS:
            statement = parse(sql)
            snapshot = copy.deepcopy(statement)
            from_tree, tree_report = executor.execute_with_report(statement)
            assert statement == snapshot
            from_text, text_report = executor.execute_with_report(sql)
            assert from_tree.rows == from_text.rows
            assert tree_report.keys_after_pushdown == text_report.keys_after_pushdown
            assert executor.plan_key_requests(statement) == (
                executor.plan_key_requests(sql)
            )
            assert statement == snapshot

    def test_is_borrowed_not_cached(self, executor, db):
        """The tree is the caller's: no cache entry, no table left behind."""
        executor.execute_with_report(parse(STATEMENTS[1]))
        assert len(executor._prepared) == 0
        assert temp_objects(db) == 0


# -- slots --------------------------------------------------------------------------


class TestSlots:
    def test_temp_tables_do_not_leak(self, executor, db):
        for _ in range(50):
            for sql in STATEMENTS:
                executor.execute(sql)
        # one table and one index per slot, however often they are used
        assert 0 < temp_objects(db) <= 2 * SLOTS

    def test_steady_state_issues_no_ddl(self, executor, db):
        for sql in STATEMENTS:
            executor.execute(sql)
        statements = []
        db.connection.set_trace_callback(statements.append)
        reports = [executor.execute_with_report(sql)[1] for sql in STATEMENTS]
        db.connection.set_trace_callback(None)
        ddl = [
            s for s in statements
            if s.lstrip().upper().startswith(("CREATE", "DROP"))
        ]
        assert ddl == []
        # ... and so the rewritten SQL of a text is one constant string
        assert [r.rewritten_sql for r in reports] == [
            executor.execute_with_report(sql)[1].rewritten_sql
            for sql in STATEMENTS
        ]

    def test_failed_request_leaks_no_rows_into_the_next(
        self, executor, db, superhero_world, monkeypatch
    ):
        """A slot is refilled before every use, whatever happened last time."""
        sql = STATEMENTS[0]
        executor.execute(sql)  # the slot exists and holds every hero

        original = db.query

        def failing(text, params=()):
            if "__llm_ing_" in text:
                raise ExecutionError("injected between refill and final query")
            return original(text, params)

        monkeypatch.setattr(db, "query", failing)
        with pytest.raises(ExecutionError):
            executor.execute(sql)
        monkeypatch.setattr(db, "query", original)

        # same text, but the predicate now selects far fewer keys
        db.execute("DELETE FROM superhero WHERE height_cm <= 190")
        result, report = executor.execute_with_report(sql)
        remaining = db.row_count("superhero")
        assert report.keys_after_pushdown == {
            "Which comic book publisher published this superhero?": remaining
        }
        slot_rows = db.row_count("__llm_ing_0")
        assert slot_rows == report.keys_generated <= remaining
        with build_curated_database(superhero_world) as other:
            other.execute("DELETE FROM superhero WHERE height_cm <= 190")
            fresh = HybridQueryExecutor(
                other, make_model(superhero_world), superhero_world
            )
            assert fresh.execute(sql).rows == result.rows

    def test_eviction_is_bounded_and_drops_the_slots(
        self, executor, db, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "PREPARED_CACHE_SIZE", 2)
        expected = [executor.execute(sql).rows for sql in STATEMENTS]
        assert list(executor._prepared) == STATEMENTS[1:]
        # statement 0's table and index went with it: 2 + 1 slots remain
        assert temp_objects(db) == 2 * 3
        # an evicted text comes back with a new slot and the same answer
        assert executor.execute(STATEMENTS[0]).rows == expected[0]
        assert list(executor._prepared) == [STATEMENTS[2], STATEMENTS[0]]
        assert temp_objects(db) == 2 * 2


# -- hazards ------------------------------------------------------------------------


class TestHazards:
    def test_nothing_is_keyed_on_a_dead_tree(self, executor, db, superhero_world):
        """(a) Query B must get B's keys even if its nodes reuse A's addresses.

        Same LLMMap call, different WHERE, each statement planned and
        dropped before the next: an ``id(owner)``-keyed memo that does
        not keep the tree alive hands B the key SQL of a dead A.
        """
        for height in range(150, 230, 2):
            sql = (
                f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = "
                f"'DC Comics' AND height_cm > {height}"
            )
            statement = parse(sql)
            (request,), _ = executor.plan_key_requests(statement)
            del statement
            expected = db.query_rows(
                "SELECT DISTINCT superhero_name, full_name FROM superhero "
                f"NOT INDEXED WHERE height_cm > {height}"
            )
            assert request[1] == [tuple(map(str, row)) for row in expected]
            assert executor.plan_key_requests(sql) == ([request], [])

    def test_the_cache_is_per_executor(self, superhero_world):
        """(b) Executors differing in ``pushdown`` share no preparation."""
        sql = STATEMENTS[1]
        with build_curated_database(superhero_world) as db:
            model = make_model(superhero_world)
            narrow = HybridQueryExecutor(db, model, superhero_world, pushdown=True)
            wide = HybridQueryExecutor(db, model, superhero_world, pushdown=False)
            for _ in range(2):
                pushed = narrow.execute_with_report(sql)[1].keys_after_pushdown
                full = wide.execute_with_report(sql)[1].keys_after_pushdown
                assert set(pushed) == set(full)
                assert all(pushed[q] < full[q] for q in pushed)
            assert narrow._prepared[sql] is not wide._prepared[sql]

    def test_the_batch_path_keeps_no_prompt_memo(
        self, executor, monkeypatch
    ):
        """(c) ``_generate_mapping`` assembles every prompt it dispatches.

        A prompt memo there costs a batch run memory (each text runs
        once) and buys nothing; the memos live on the serving flush
        path, bounded.
        """
        built = []
        original = executor._map_prompt

        def counting(call, batch):
            built.append(tuple(batch))
            return original(call, batch)

        monkeypatch.setattr(executor, "_map_prompt", counting)
        executor.execute(STATEMENTS[0])
        first = len(built)
        executor.execute(STATEMENTS[0])
        assert first > 0 and len(built) == 2 * first

    def test_flush_memos_are_bounded(self, swan):
        from repro.serve.server import QueryServer, ServerConfig
        from repro.serve.state import FLUSH_MEMO_SIZE

        with QueryServer(swan, ServerConfig()) as server:
            state = server.states.udf("superhero")
            assert state.chunk_prompt.cache_info().maxsize == FLUSH_MEMO_SIZE
            assert state.decode.cache_info().maxsize == FLUSH_MEMO_SIZE
            call, keys = state.executor.plan_key_requests(STATEMENTS[0])[0][0]
            chunk = tuple(keys[:5])
            prompt = state.chunk_prompt(call, chunk)
            assert prompt == state.executor._map_prompt(call, list(chunk))
            assert state.chunk_prompt(call, chunk) is prompt
            assert state.decode("1. a\n3. c", 3) == ("a", None, "c")
