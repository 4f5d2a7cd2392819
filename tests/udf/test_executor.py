"""Tests for the hybrid query executor."""

import pytest

from repro.errors import IngredientError
from repro.llm.batching import batched
from repro.llm.cache import PromptCache
from repro.llm.chat import (
    ANSWER_MARKER,
    MAP_KEYS_MARKER,
    QUESTION_MARKER,
    quote_field,
)
from repro.llm.declarative import PromptSpec
from repro.swan.build import build_curated_database, build_original_database
from repro.sqlengine.results import results_match
from repro.udf import HybridQueryExecutor, parse_map_answers

from tests.conftest import make_model


@pytest.fixture()
def executor(superhero_world):
    db = build_curated_database(superhero_world)
    yield HybridQueryExecutor(db, make_model(superhero_world), superhero_world)
    db.close()


class TestMapExecution:
    def test_map_filter(self, executor, superhero_world):
        result = executor.execute(
            "SELECT superhero_name FROM superhero WHERE "
            "{{LLMMap('Which comic book publisher published this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} "
            "= 'Dark Horse Comics'"
        )
        names = {row[0] for row in result.rows}
        expected = {
            key[0]
            for key, entry in superhero_world.truth["superhero_info"].items()
            if entry["publisher_name"] == "Dark Horse Comics"
        }
        assert names == expected
        assert {"Hellboy", "The Mask", "Ghost"} <= names

    def test_map_in_select_list(self, executor):
        result = executor.execute(
            "SELECT superhero_name, "
            "{{LLMMap('What is the eye color of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} AS eye "
            "FROM superhero WHERE superhero_name = 'Superman'"
        )
        assert result.rows == [("Superman", "Blue")]

    def test_shared_signature_one_generation(self, executor):
        _, report = executor.execute_with_report(
            "SELECT {{LLMMap('What is the race of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} FROM superhero "
            "ORDER BY {{LLMMap('What is the race of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} LIMIT 3"
        )
        # one generation pass over all heroes, not two (SELECT + ORDER BY)
        import math

        total_keys = list(report.keys_after_pushdown.values())[0]
        assert report.llm_calls == math.ceil(total_keys / 5)

    def test_map_as_from_source_rejected(self, executor):
        with pytest.raises(IngredientError):
            executor.execute(
                "SELECT * FROM {{LLMMap('q', 'superhero::superhero_name')}} AS m"
            )


class TestPushdown:
    QUERY = (
        "SELECT {{LLMMap('Which comic book publisher published this superhero?', "
        "'superhero::superhero_name', 'superhero::full_name')}} FROM superhero "
        "WHERE superhero_name = 'Batman'"
    )

    def test_pushdown_limits_keys(self, superhero_world):
        db = build_curated_database(superhero_world)
        executor = HybridQueryExecutor(
            db, make_model(superhero_world), superhero_world, pushdown=True
        )
        result, report = executor.execute_with_report(self.QUERY)
        assert result.rows == [("DC Comics",)]
        assert list(report.keys_after_pushdown.values()) == [1]
        assert report.llm_calls == 1
        db.close()

    def test_pushdown_off_generates_everything(self, superhero_world):
        db = build_curated_database(superhero_world)
        executor = HybridQueryExecutor(
            db, make_model(superhero_world), superhero_world, pushdown=False
        )
        result, report = executor.execute_with_report(self.QUERY)
        assert result.rows == [("DC Comics",)]
        assert list(report.keys_after_pushdown.values())[0] > 100
        db.close()


class TestQA:
    def test_qa_substitution(self, executor):
        result = executor.execute(
            "SELECT superhero_name FROM superhero WHERE "
            "{{LLMMap('Which comic book publisher published this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} = "
            "{{LLMQA('Which comic book publisher published the superhero "
            "''Hellboy''?')}} AND superhero_name != 'Hellboy'"
        )
        expected = {
            key[0]
            for key, entry in executor.world.truth["superhero_info"].items()
            if entry["publisher_name"] == "Dark Horse Comics"
        } - {"Hellboy"}
        assert {row[0] for row in result.rows} == expected


class TestLLMJoin:
    def test_join_source(self, executor):
        result = executor.execute(
            "SELECT s.superhero_name, j.value FROM superhero s "
            "JOIN {{LLMJoin('What is the gender of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} AS j "
            "ON s.superhero_name = j.superhero_name "
            "AND s.full_name = j.full_name "
            "WHERE s.superhero_name = 'Batgirl'"
        )
        assert result.rows == [("Batgirl", "Female")]

    def test_llmqa_as_source_rejected(self, executor):
        with pytest.raises(IngredientError):
            executor.execute("SELECT * FROM {{LLMQA('q')}} AS j")


class TestBatching:
    def test_batch_size_controls_call_count(self, superhero_world):
        total_keys = len(superhero_world.truth["superhero_info"])
        query = (
            "SELECT COUNT(*) FROM superhero WHERE "
            "{{LLMMap('What is the gender of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} = 'Female'"
        )
        for batch_size in (1, 5, 25):
            db = build_curated_database(superhero_world)
            executor = HybridQueryExecutor(
                db, make_model(superhero_world), superhero_world,
                batch_size=batch_size,
            )
            _, report = executor.execute_with_report(query)
            expected_calls = -(-total_keys // batch_size)  # ceil division
            assert report.llm_calls == expected_calls
            db.close()

    def test_invalid_batch_size(self, superhero_world):
        db = build_curated_database(superhero_world)
        with pytest.raises(ValueError):
            HybridQueryExecutor(
                db, make_model(superhero_world), superhero_world, batch_size=0
            )
        db.close()


class TestCaching:
    def test_repeated_query_hits_cache(self, superhero_world):
        db = build_curated_database(superhero_world)
        cache = PromptCache()
        executor = HybridQueryExecutor(
            db, make_model(superhero_world), superhero_world, cache=cache
        )
        query = (
            "SELECT COUNT(*) FROM superhero WHERE "
            "{{LLMMap('What is the race of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} = 'Human'"
        )
        executor.execute(query)
        misses_after_first = cache.misses
        executor.execute(query)
        assert cache.misses == misses_after_first  # all hits second time
        assert cache.hits >= misses_after_first
        db.close()

    def test_different_phrasing_misses(self, superhero_world):
        db = build_curated_database(superhero_world)
        cache = PromptCache()
        executor = HybridQueryExecutor(
            db, make_model(superhero_world), superhero_world, cache=cache
        )
        executor.execute(
            "SELECT COUNT(*) FROM superhero WHERE "
            "{{LLMMap('What is the race of this superhero?', "
            "'superhero::superhero_name', 'superhero::full_name')}} = 'Human'"
        )
        misses_first = cache.misses
        executor.execute(
            "SELECT COUNT(*) FROM superhero WHERE "
            "{{LLMMap('State the race of this hero.', "
            "'superhero::superhero_name', 'superhero::full_name')}} = 'Human'"
        )
        assert cache.misses == 2 * misses_first
        db.close()


class TestAnswerParsing:
    def test_ordered_answers(self):
        assert parse_map_answers("1. a\n2. b", 2) == ["a", "b"]

    def test_gap_becomes_none(self):
        assert parse_map_answers("1. a\n3. c", 3) == ["a", None, "c"]

    def test_noise_lines_ignored(self):
        assert parse_map_answers("Sure!\n1. a\nthanks", 1) == ["a"]

    def test_out_of_range_ignored(self):
        assert parse_map_answers("1. a\n9. z", 1) == ["a"]

    def test_answer_containing_dots(self):
        assert parse_map_answers("1. www.school.edu", 1) == ["www.school.edu"]

    def test_empty_answer_is_none(self):
        assert parse_map_answers("1. \n2. b", 2) == [None, "b"]


class TestEndToEndPerfect:
    def test_formula_one_sample(self, swan, formula_world):
        db = build_curated_database(formula_world)
        executor = HybridQueryExecutor(
            db, make_model(formula_world), formula_world
        )
        with build_original_database(formula_world) as orig:
            for question in swan.questions_for("formula_1")[:8]:
                expected = orig.query(question.gold_sql)
                actual = executor.execute(question.blend_sql)
                assert results_match(expected, actual, ordered=question.ordered), (
                    question.qid
                )
        db.close()


class TestMapPromptMatchesSpec:
    """``_map_prompt`` splices key lines after a cached per-ingredient
    prefix; the declarative PromptSpec of the same sections defines it."""

    @staticmethod
    def _spec_prompt(executor, call, batch):
        spec = PromptSpec()
        spec.add_task(
            "Answer the question for each given key from the "
            f"`{executor.world.name}` database."
        )
        for line in executor._options_lines(call):
            spec.add_values(line)
        for line in executor._demo_lines(call.question):
            spec.add_demonstration(line)
        key_lines = [MAP_KEYS_MARKER]
        for index, key in enumerate(batch, start=1):
            rendered = "|".join(quote_field(str(part)) for part in key)
            key_lines.append(f"{index}. {rendered}")
        spec.add_target(f"{QUESTION_MARKER} {call.question}", *key_lines)
        spec.add_rule(
            "Return one line per key in the format `index. answer`, "
            "with no explanation."
        )
        spec.add_cue(ANSWER_MARKER)
        return spec.render()

    @pytest.mark.parametrize("shots", [0, 2])
    def test_first_and_last_batch_of_every_planned_map_call(self, swan, shots):
        checked = with_options = 0
        for name in swan.database_names():
            world = swan.world(name)
            with build_curated_database(world) as db:
                executor = HybridQueryExecutor(
                    db, make_model(world), world, shots=shots
                )
                for question in swan.questions_for(name):
                    requests, _ = executor.plan_key_requests(question.blend_sql)
                    for call, keys in requests:
                        batches = batched(keys, executor.batch_size)
                        for batch in (batches[:1] + batches[-1:]):
                            assert executor._map_prompt(
                                call, batch
                            ) == self._spec_prompt(executor, call, batch)
                            checked += 1
                        with_options += bool(executor._options_lines(call))
        assert checked > 100
        assert with_options > 0
