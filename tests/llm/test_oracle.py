"""Tests for the knowledge oracle."""

import pytest

from repro.errors import LLMError
from repro.llm.oracle import KnowledgeOracle, stable_choice, stable_uniform
from repro.llm.profiles import get_profile
from repro.swan.base import KIND_MULTI


@pytest.fixture(scope="module")
def oracle(request):
    from repro.swan.benchmark import load_benchmark

    return KnowledgeOracle(load_benchmark().world("superhero"))


BATMAN = ("Batman", "Bruce Wayne")


class TestStableHashing:
    def test_uniform_deterministic(self):
        assert stable_uniform("a", 1) == stable_uniform("a", 1)

    def test_uniform_sensitive_to_parts(self):
        assert stable_uniform("a") != stable_uniform("b")

    def test_uniform_in_range(self):
        for i in range(100):
            assert 0.0 <= stable_uniform("x", i) < 1.0

    def test_choice_deterministic(self):
        options = ["a", "b", "c"]
        assert stable_choice(options, 1) == stable_choice(options, 1)

    def test_choice_empty_raises(self):
        with pytest.raises(LLMError):
            stable_choice([], 1)


class TestGeneration:
    def test_perfect_model_returns_truth(self, oracle):
        value = oracle.generate_value(
            "superhero_info", BATMAN, "publisher_name", get_profile("perfect"), 0
        )
        assert value == "DC Comics"

    def test_deterministic_per_cell(self, oracle):
        profile = get_profile("gpt-3.5-turbo")
        first = oracle.generate_value("superhero_info", BATMAN, "eye_color", profile, 0)
        second = oracle.generate_value("superhero_info", BATMAN, "eye_color", profile, 0)
        assert first == second

    def test_shots_monotone_knowledge(self, oracle):
        """A cell known at k shots stays known at k+ shots."""
        profile = get_profile("gpt-4-turbo")
        world = oracle.world
        for key in list(world.truth["superhero_info"])[:40]:
            previous_correct = False
            for shots in (0, 1, 3, 5):
                value = oracle.generate_value(
                    "superhero_info", key, "publisher_name", profile, shots
                )
                correct = value == world.truth_value(
                    "superhero_info", key, "publisher_name"
                )
                if previous_correct:
                    assert correct, (key, shots)
                previous_correct = correct

    def test_stronger_model_knows_superset(self, oracle):
        """GPT-4's correct cells include GPT-3.5's (same draw, higher bar)."""
        gpt35, gpt4 = get_profile("gpt-3.5-turbo"), get_profile("gpt-4-turbo")
        world = oracle.world
        for key in list(world.truth["superhero_info"])[:40]:
            truth = str(world.truth_value("superhero_info", key, "race"))
            weak = oracle.generate_value("superhero_info", key, "race", gpt35, 5)
            strong = oracle.generate_value("superhero_info", key, "race", gpt4, 5)
            if weak == truth:
                assert strong == truth, key

    def test_selection_distractor_from_value_list(self, oracle):
        profile = get_profile("gpt-3.5-turbo")
        publishers = set(oracle.world.value_lists["publishers"])
        for key in list(oracle.world.truth["superhero_info"])[:60]:
            value = oracle.generate_value(
                "superhero_info", key, "publisher_name", profile, 0
            )
            assert value in publishers

    def test_multi_formatting(self, oracle):
        value = oracle.generate_value(
            "superhero_info", BATMAN, "powers", get_profile("perfect"), 0
        )
        truth = oracle.world.truth_value("superhero_info", BATMAN, "powers")
        assert value == ", ".join(truth)

    def test_unknown_column_raises(self, oracle):
        with pytest.raises(LLMError):
            oracle.generate_value(
                "superhero_info", BATMAN, "shoe_size", get_profile("perfect"), 0
            )


class TestDistractors:
    def test_numeric_distractor_nearby_but_wrong(self):
        from repro.swan.benchmark import load_benchmark

        world = load_benchmark().world("european_football")
        oracle = KnowledgeOracle(world)
        spec = oracle.column_spec("player_info", "height_cm")
        wrong = oracle._distractor(
            "player_info", ("Lionel Messi",), "height_cm", spec, 180, "seed"
        )
        assert wrong != 180
        assert isinstance(wrong, int)
        assert 100 < wrong < 260

    def test_url_mutation_changes_suffix(self):
        mutated = KnowledgeOracle._mutate_url("www.lincoln.edu", ("s",))
        assert mutated != "www.lincoln.edu"
        assert mutated.startswith("www.lincoln")

    def test_multi_distractor_differs(self, oracle):
        spec = oracle.column_spec("superhero_info", "powers")
        truth = oracle.world.truth_value("superhero_info", BATMAN, "powers")
        wrong = oracle._multi_distractor(spec, truth, "seed")
        assert tuple(wrong) != tuple(truth)


class TestResolution:
    def test_resolves_publisher(self, oracle):
        expansion, column = oracle.resolve_attribute(
            "Which comic book publisher published this superhero?"
        )
        assert column.name == "publisher_name"

    def test_resolves_every_keyworded_column(self, oracle):
        for expansion in oracle.world.expansions:
            for column in expansion.columns:
                question = f"Tell me about the {column.keywords[0]} please"
                _, resolved = oracle.resolve_attribute(question)
                assert resolved.keywords[0] in question

    def test_unresolvable_raises(self, oracle):
        with pytest.raises(LLMError):
            oracle.resolve_attribute("What is the meaning of life?")

    def test_find_key_exact_and_partial(self, oracle):
        expansion = oracle.world.expansion("superhero_info")
        assert oracle.find_key(expansion, "Batman") == BATMAN
        assert oracle.find_key(expansion, "bruce wayne") == BATMAN
        assert oracle.find_key(expansion, "Nobody Nowhere") is None
