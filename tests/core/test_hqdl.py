"""Tests for the HQDL pipeline."""

import pytest

from repro.core.hqdl import HQDL
from repro.errors import ReproError
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.sqlengine.results import results_match
from repro.swan.build import build_original_database

from tests.conftest import make_model


@pytest.fixture(scope="module")
def perfect_pipeline(superhero_world):
    return HQDL(superhero_world, make_model(superhero_world), shots=0)


@pytest.fixture(scope="module")
def perfect_generation(perfect_pipeline):
    return perfect_pipeline.generate_all()


class TestGeneration:
    def test_one_call_per_key(self, superhero_world, perfect_generation):
        generation = perfect_generation.tables["superhero_info"]
        assert generation.calls == len(superhero_world.truth["superhero_info"])

    def test_perfect_model_has_no_malformed_rows(self, perfect_generation):
        assert perfect_generation.total_malformed() == 0

    def test_generated_values_match_truth_under_perfect_model(
        self, superhero_world, perfect_generation
    ):
        oracle = KnowledgeOracle(superhero_world)
        expansion = superhero_world.expansion("superhero_info")
        generation = perfect_generation.tables["superhero_info"]
        for key, values in list(generation.rows.items())[:20]:
            for column, value in zip(expansion.columns, values):
                truth = superhero_world.truth_value(
                    "superhero_info", key, column.name
                )
                assert value == oracle.format_value(truth, column)

    def test_imperfect_model_drops_some_rows(self, superhero_world):
        pipeline = HQDL(
            superhero_world, make_model(superhero_world, "gpt-3.5-turbo"), shots=0
        )
        generation = pipeline.generate_all()
        assert generation.total_malformed() > 0
        table = generation.tables["superhero_info"]
        assert any(v is None for v in table.rows.values())

    def test_multi_expansion_world(self, formula_world):
        pipeline = HQDL(formula_world, make_model(formula_world), shots=0)
        generation = pipeline.generate_all()
        assert set(generation.tables) == {
            "driver_info", "circuit_info", "constructor_info",
        }


class TestMaterializeAndAnswer:
    def test_expanded_database_has_expansion_tables(
        self, perfect_pipeline, perfect_generation
    ):
        with perfect_pipeline.build_expanded_database(perfect_generation) as db:
            assert db.has_table("superhero_info")
            assert db.row_count("superhero_info") > 100

    def test_answer_matches_gold_under_perfect_model(
        self, swan, superhero_world, perfect_pipeline, perfect_generation
    ):
        with perfect_pipeline.build_expanded_database(perfect_generation) as db, \
                build_original_database(superhero_world) as orig:
            for question in swan.questions_for("superhero")[:10]:
                expected = orig.query(question.gold_sql)
                actual = perfect_pipeline.answer(db, question)
                assert results_match(expected, actual, ordered=question.ordered), (
                    question.qid
                )

    def test_answer_rejects_foreign_question(
        self, swan, perfect_pipeline, perfect_generation
    ):
        with perfect_pipeline.build_expanded_database(perfect_generation) as db:
            question = swan.question("formula_1_q01")
            with pytest.raises(ReproError):
                perfect_pipeline.answer(db, question)

    def test_materialize_requires_all_tables(self, formula_world, perfect_pipeline):
        pipeline = HQDL(formula_world, make_model(formula_world), shots=0)
        partial = pipeline.generate_all()
        del partial.tables["circuit_info"]
        from repro.swan.build import build_curated_database

        with build_curated_database(formula_world) as db:
            with pytest.raises(ReproError):
                pipeline.materialize(db, partial)


class TestUsageAccounting:
    def test_generation_meters_tokens(self, superhero_world):
        model = make_model(superhero_world)
        pipeline = HQDL(superhero_world, model, shots=0)
        pipeline.generate_all()
        assert model.meter.total.calls == len(
            superhero_world.truth["superhero_info"]
        )
        assert model.meter.total.input_tokens > 10_000

    def test_few_shot_costs_more_input(self, superhero_world):
        zero_model = make_model(superhero_world)
        HQDL(superhero_world, zero_model, shots=0).generate_all()
        five_model = make_model(superhero_world)
        HQDL(superhero_world, five_model, shots=5).generate_all()
        assert (
            five_model.meter.total.input_tokens
            > zero_model.meter.total.input_tokens
        )


class TestSharedCellValues:
    def test_equal_cells_of_one_generation_are_one_object(self, formula_world):
        pipeline = HQDL(formula_world, make_model(formula_world), shots=0)
        generation = pipeline.generate_all()
        by_value: dict[str, int] = {}
        cells = 0
        for table in generation.tables.values():
            for values in table.rows.values():
                for value in values or ():
                    cells += 1
                    assert by_value.setdefault(value, id(value)) == id(value)
        assert len(by_value) < cells  # the world repeats values across keys

    def test_generations_do_not_share_values(self, superhero_world):
        first, second = (
            HQDL(superhero_world, make_model(superhero_world), shots=0)
            .generate_all()
            .tables["superhero_info"]
            for _ in range(2)
        )
        key = next(iter(first.rows))
        assert first.rows[key] == second.rows[key]
        assert first.rows[key][0] is not second.rows[key][0]
