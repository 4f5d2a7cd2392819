"""Executor edge cases beyond the SWAN workload shapes."""

import pytest

from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor

from tests.conftest import make_model


@pytest.fixture()
def executor(superhero_world):
    db = build_curated_database(superhero_world)
    yield HybridQueryExecutor(db, make_model(superhero_world), superhero_world)
    db.close()


PUB_MAP = (
    "{{LLMMap('Which comic book publisher published this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}}"
)


class TestPlainSQLPassThrough:
    def test_query_without_ingredients_executes(self, executor):
        result = executor.execute(
            "SELECT COUNT(*) FROM superhero WHERE height_cm > 200"
        )
        assert result.scalar() > 0

    def test_no_llm_calls_for_plain_sql(self, executor):
        _, report = executor.execute_with_report("SELECT 1")
        assert report.llm_calls == 0
        assert report.call_sizes == []


class TestIngredientPlacement:
    def test_map_in_having(self, executor):
        """Ingredient inside HAVING (grouped query) still resolves."""
        result = executor.execute(
            "SELECT superhero_name FROM superhero "
            "GROUP BY superhero_name, full_name "
            f"HAVING {PUB_MAP} = 'Dark Horse Comics'"
        )
        assert len(result) >= 3

    def test_map_in_order_by_only(self, executor):
        result = executor.execute(
            "SELECT superhero_name FROM superhero "
            f"ORDER BY {PUB_MAP}, superhero_name LIMIT 4"
        )
        assert len(result) == 4

    def test_map_inside_case_expression(self, executor):
        result = executor.execute(
            "SELECT COUNT(*) FROM superhero WHERE "
            f"CASE WHEN {PUB_MAP} = 'Marvel Comics' THEN 1 ELSE 0 END = 1"
        )
        truth_count = sum(
            1
            for entry in executor.world.truth["superhero_info"].values()
            if entry["publisher_name"] == "Marvel Comics"
        )
        assert result.scalar() == truth_count

    def test_maps_on_two_tables_in_one_query(self, swan):
        """Distinct source tables each get their own generation."""
        world = swan.world("formula_1")
        db = build_curated_database(world)
        executor = HybridQueryExecutor(db, make_model(world), world)
        result, report = executor.execute_with_report(
            "SELECT d.surname FROM results r "
            "JOIN drivers d ON r.driver_id = d.driver_id "
            "JOIN races ra ON r.race_id = ra.race_id "
            "JOIN circuits c ON ra.circuit_id = c.circuit_id WHERE "
            "{{LLMMap('What is the nationality of this Formula 1 driver?', "
            "'drivers::forename', 'drivers::surname')}} = 'British' AND "
            "{{LLMMap('In which country is this Formula 1 circuit?', "
            "'circuits::circuit_name')}} = 'UK' AND r.position = 1"
        )
        assert len(report.keys_after_pushdown) == 2
        # British winners at Silverstone exist in the generated seasons
        assert all(isinstance(row[0], str) for row in result.rows)
        db.close()


class TestReportDiagnostics:
    def test_rewritten_sql_is_plain_sqlite(self, executor):
        db = executor.db
        _, report = executor.execute_with_report(
            f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = 'DC Comics'"
        )
        assert "{{" not in report.rewritten_sql
        (lookup,) = db.lookups
        # one lookup call per key tuple, no subquery and no table
        assert report.rewritten_sql == (
            "SELECT superhero_name FROM superhero WHERE "
            f"CAST({lookup.name}(superhero.superhero_name, superhero.full_name)"
            " AS TEXT) = 'DC Comics'"
        )
        assert db.query_scalar("SELECT count(*) FROM sqlite_temp_master") == 0
        # the rewritten text runs on its own while a mapping is bound
        lookup.bind({("Batman", "Bruce Wayne"): "DC Comics"})
        assert db.query(report.rewritten_sql).rows == [("Batman",)]
        lookup.unbind()

    def test_call_sizes_recorded(self, executor):
        _, report = executor.execute_with_report(
            f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = 'DC Comics'"
        )
        assert len(report.call_sizes) == report.llm_calls
        assert all(i > 0 and o > 0 for i, o in report.call_sizes)

    def test_latency_estimate_positive(self, executor):
        _, report = executor.execute_with_report(
            f"SELECT superhero_name FROM superhero WHERE {PUB_MAP} = 'DC Comics'"
        )
        sequential = report.estimated_latency(workers=1)
        parallel = report.estimated_latency(workers=8)
        assert sequential > 0
        assert parallel <= sequential


class TestErrorPaths:
    def test_invalid_ingredient_name(self, executor):
        from repro.errors import IngredientError

        with pytest.raises(IngredientError):
            executor.execute("SELECT {{LLMDream('q', 't::c')}} FROM superhero")

    def test_unknown_source_table(self, executor):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            executor.execute(
                "SELECT {{LLMMap('What is the race of this superhero?', "
                "'ghost_table::name')}} FROM superhero"
            )


class TestFailedCallsDegrade:
    def test_failed_qa_call_degrades_like_a_map_batch(self, swan, superhero_world):
        """Under a provider that always fails, superhero_q21's map batches
        and its LLMQA answer both degrade to NULL: the query still runs."""
        from repro.llm.faults import FaultPlan
        from repro.llm.resilience import ResilienceReport
        from repro.llm.stack import build_resilient_stack

        resilience = ResilienceReport()
        client = build_resilient_stack(
            make_model(superhero_world),
            plan=FaultPlan(transient=1.0),
            report=resilience,
        )
        with build_curated_database(superhero_world) as db:
            executor = HybridQueryExecutor(
                db, client, superhero_world, resilience=resilience
            )
            result, report = executor.execute_with_report(
                swan.question("superhero_q21").blend_sql
            )
        assert result.rows == []
        # 26 map batches holding 127 keys, plus the one QA answer
        assert report.degraded_batches == 26 + 1
        assert report.degraded_keys == 127 + 1
        assert report.llm_calls == 0
        assert resilience.degraded_rows == 127 + 1
        assert "= NULL" in report.rewritten_sql

    def test_a_broken_client_aborts_the_query(self, swan, superhero_world):
        """A plain LLMError is no fault to degrade on but a broken client
        (a script with no answers raises one for every prompt): the query
        raises, as HQDL does, instead of answering from NULLs."""
        from repro.errors import LLMError, TransientLLMError
        from repro.llm.client import ScriptedClient

        with build_curated_database(superhero_world) as db:
            executor = HybridQueryExecutor(
                db, ScriptedClient({}), superhero_world
            )
            with pytest.raises(LLMError) as raised:
                executor.execute_with_report(
                    swan.question("superhero_q21").blend_sql
                )
        assert not isinstance(raised.value, TransientLLMError)
