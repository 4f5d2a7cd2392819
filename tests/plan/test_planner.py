"""Tests for the run-level call planner."""

import pytest

from repro.llm.cache import PromptCache
from repro.plan import CallPlanner, MappingStore
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor

from tests.conftest import make_model

MAP_Q = (
    "SELECT superhero_name FROM superhero WHERE "
    "{{LLMMap('What is the eye color of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}} = 'Blue'"
)
# a different question over the SAME ingredient signature
MAP_Q2 = (
    "SELECT COUNT(*) FROM superhero WHERE "
    "{{LLMMap('What is the eye color of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}} = 'Green'"
)
QA_Q = "SELECT {{LLMQA('What planet was Superman born on?')}}"
RACE_SCAN = (
    "SELECT COUNT(*) FROM superhero WHERE "
    "{{LLMMap('What is the race of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}} = 'Human'"
)
# the same ingredient, its keys narrowed to one by predicate pushdown
RACE_OF_THOR = (
    "SELECT {{LLMMap('What is the race of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}} "
    "FROM superhero WHERE superhero_name = 'Thor'"
)


@pytest.fixture()
def harness(superhero_world):
    """(executor, model) over a fresh curated superhero database."""
    db = build_curated_database(superhero_world)
    model = make_model(superhero_world)
    executor = HybridQueryExecutor(
        db, model, superhero_world, cache=PromptCache()
    )
    yield executor, model
    db.close()


class TestPlanning:
    def test_qa_prompts_dedup_across_questions(self, harness):
        executor, _ = harness
        plan = CallPlanner(executor).plan([QA_Q, QA_Q])
        stats = plan.stats
        assert stats.questions == 2
        assert (stats.collected, stats.unique) == (2, 1)
        assert [c.label for c in plan.calls] == ["udf:qa"]

    def test_pairs_mode_unions_keys_across_questions(self, harness):
        executor, _ = harness
        plan = CallPlanner(executor).plan([MAP_Q, MAP_Q2])
        stats = plan.stats
        assert stats.signatures == 1
        # both questions need every hero key, so dedup halves the pairs
        assert stats.collected == 2 * stats.unique


class TestExecution:
    def test_qa_answers_prewarm_the_cache(self, harness):
        executor, model = harness
        CallPlanner(executor).plan_and_execute([QA_Q])
        paid_before = model.meter.total.calls
        assert paid_before == 1
        result = executor.execute(QA_Q)
        assert result.rows  # the answer, served from the warm cache
        assert model.meter.total.calls == paid_before

    def test_pairs_mode_fills_the_store_and_serves_executions(
        self, superhero_world
    ):
        store = MappingStore()
        model = make_model(superhero_world)
        with build_curated_database(superhero_world) as db:
            executor = HybridQueryExecutor(
                db, model, superhero_world, cache=PromptCache(),
                mapping_store=store,
            )
            plan = CallPlanner(executor).plan_and_execute([MAP_Q, MAP_Q2])
            assert plan.stats.keys_stored > 0
            assert store.total_keys() == plan.stats.keys_stored
            paid_before = model.meter.total.calls
            executor.execute(MAP_Q)
            executor.execute(MAP_Q2)
        # both ingredients fully covered: zero new upstream calls
        assert model.meter.total.calls == paid_before
        assert store.hits == 2

    def test_stats_accounting_balances(self, harness):
        executor, model = harness
        plan = CallPlanner(executor).plan_and_execute([MAP_Q, QA_Q])
        stats = plan.stats
        # a cold cache, no failures: every planned call is paid once,
        # and charged once to the plan's report
        assert stats.report.llm_calls == stats.planned_calls
        assert stats.report.llm_calls == model.meter.total.calls
        assert len(stats.report.call_sizes) == stats.report.llm_calls
        assert stats.as_record()["llm_calls"] == stats.report.llm_calls
        # repeated: the prompt cache answers, nothing is charged
        again = CallPlanner(executor).plan_and_execute([MAP_Q, QA_Q])
        assert again.stats.report.llm_calls == 0



class TestExecutorPublishes:
    """An executor holding a store publishes what it generates there."""

    def test_the_store_answers_later_executions(self, superhero_world):
        store = MappingStore()
        model = make_model(superhero_world)
        with build_curated_database(superhero_world) as db:
            executor = HybridQueryExecutor(
                db, model, superhero_world, cache=PromptCache(),
                mapping_store=store,
            )
            first = executor.execute(MAP_Q)
            paid, cache_hits = model.meter.total.calls, executor.cache.hits
            assert paid > 0 and store.total_keys() > 0
            executor.execute(MAP_Q2)  # same signature, other question
            again = executor.execute(MAP_Q)
        assert again.rows == first.rows
        # answered before any prompt was built: no call, no cache probe
        assert model.meter.total.calls == paid
        assert executor.cache.hits == cache_hits
        assert store.hits == 2

    @pytest.mark.parametrize(
        "later, rows",
        [(RACE_SCAN, None), (RACE_OF_THOR, [("Asgardian",)])],
        ids=["repeat", "pushed-down"],
    )
    def test_a_full_scan_serves_later_executions(
        self, superhero_world, later, rows
    ):
        store = MappingStore()
        model = make_model(superhero_world)
        with build_curated_database(superhero_world) as db:
            executor = HybridQueryExecutor(
                db, model, superhero_world, mapping_store=store
            )
            scan = executor.execute(RACE_SCAN)
            paid = model.meter.total.calls
            result = executor.execute(later)
        assert model.meter.total.calls == paid  # zero new LLM calls
        assert store.hits == 1
        assert result.rows == (scan.rows if rows is None else rows)
