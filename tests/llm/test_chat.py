"""Tests for the simulated chat model (prompt parsing + completion)."""

import pytest

from repro.core.prompts import RowPromptBuilder
from repro.errors import LLMError
from repro.llm.chat import MockChatModel, parse_quoted_row, quote_field
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.swan.benchmark import load_benchmark


@pytest.fixture(scope="module")
def world():
    return load_benchmark().world("superhero")


@pytest.fixture(scope="module")
def perfect(world):
    return MockChatModel(KnowledgeOracle(world), get_profile("perfect"))


class TestRowProtocolHelpers:
    def test_quote_field_escapes(self):
        assert quote_field("it's") == "'it''s'"

    def test_parse_quoted_row(self):
        assert parse_quoted_row("'a','b,c','d'") == ["a", "b,c", "d"]

    def test_parse_preserves_question_marks(self):
        assert parse_quoted_row("'a',?,?") == ["a", "?", "?"]

    def test_parse_empty(self):
        assert parse_quoted_row("") == []


class TestRowCompletion:
    def test_perfect_row_completion(self, world, perfect):
        builder = RowPromptBuilder(world, world.expansion("superhero_info"))
        prompt = builder.build(("Batman", "Bruce Wayne"))
        response = perfect.complete(prompt)
        fields = parse_quoted_row(response.text)
        assert fields[:2] == ["Batman", "Bruce Wayne"]
        assert fields[5] == "DC Comics"  # publisher_name position
        assert len(fields) == builder.expected_field_count()

    def test_unknown_entity_gets_guesses(self, world, perfect):
        builder = RowPromptBuilder(world, world.expansion("superhero_info"))
        prompt = builder.build(("Nobody", "Nobody At All"))
        fields = parse_quoted_row(perfect.complete(prompt).text)
        assert fields[2:] == ["Unknown"] * 8

    def test_usage_metered(self, world):
        model = MockChatModel(KnowledgeOracle(world), get_profile("perfect"))
        builder = RowPromptBuilder(world, world.expansion("superhero_info"))
        model.complete(builder.build(("Batman", "Bruce Wayne")), label="test")
        assert model.meter.total.calls == 1
        assert model.meter.total.input_tokens > 50
        assert model.meter.by_label["test"].calls == 1

    def test_shots_detected_from_prompt(self, world):
        """More demonstrations in the prompt → at least as many correct cells."""
        model = MockChatModel(KnowledgeOracle(world), get_profile("gpt-3.5-turbo"))
        expansion = world.expansion("superhero_info")
        keys = list(world.truth["superhero_info"])[:30]

        def correct_cells(shots):
            builder = RowPromptBuilder(world, expansion, shots=shots)
            count = 0
            for key in keys:
                fields = parse_quoted_row(model.complete(builder.build(key)).text)
                if len(fields) != builder.expected_field_count():
                    continue
                truth_row = [
                    KnowledgeOracle.format_value(
                        world.truth_value("superhero_info", key, c.name), c
                    )
                    for c in expansion.columns
                ]
                count += sum(1 for got, want in zip(fields[2:], truth_row) if got == want)
            return count

        assert correct_cells(5) >= correct_cells(0)

    def test_format_errors_occur_at_zero_shot(self, world):
        model = MockChatModel(KnowledgeOracle(world), get_profile("gpt-3.5-turbo"))
        expansion = world.expansion("superhero_info")
        builder = RowPromptBuilder(world, expansion, shots=0)
        expected = builder.expected_field_count()
        bad = 0
        for key in world.truth["superhero_info"]:
            fields = parse_quoted_row(
                model.complete(builder.build(key)).text.splitlines()[-1]
            )
            if len(fields) != expected or "" in fields:
                bad += 1
        assert bad > 0  # the calibrated zero-shot rate is a few percent


class TestMapCompletion:
    def _map_prompt(self, question, keys):
        lines = [
            "Answer the question for each given key from the `superhero` database.",
            f"Question: {question}",
            "Keys:",
        ]
        for i, key in enumerate(keys, 1):
            lines.append(f"{i}. " + "|".join(quote_field(k) for k in key))
        lines.append("Return one line per key in the format `index. answer`.")
        lines.append("Answer:")
        return "\n".join(lines)

    def test_map_answers_in_order(self, perfect):
        prompt = self._map_prompt(
            "Which comic book publisher published this superhero?",
            [("Batman", "Bruce Wayne"), ("Spider-Man", "Peter Parker")],
        )
        text = perfect.complete(prompt).text
        assert text.splitlines() == ["1. DC Comics", "2. Marvel Comics"]

    def test_map_unknown_key(self, perfect):
        prompt = self._map_prompt(
            "Which comic book publisher published this superhero?",
            [("Ghost Nobody", "Null Void")],
        )
        assert perfect.complete(prompt).text == "1. Unknown"

    def test_map_resolves_attribute_by_keywords(self, perfect):
        prompt = self._map_prompt(
            "What is the eye color of this superhero?",
            [("Superman", "Clark Kent")],
        )
        assert perfect.complete(prompt).text == "1. Blue"


class TestQACompletion:
    def test_qa_answers_entity_question(self, perfect):
        prompt = (
            "Answer the question with a single short value and no explanation.\n"
            "Database: superhero\n"
            "Question: Which comic book publisher published the superhero "
            "'Hellboy'?\n"
            "Answer:"
        )
        assert perfect.complete(prompt).text == "Dark Horse Comics"

    def test_qa_without_entity_returns_unknown(self, perfect):
        prompt = (
            "Answer the question with a single short value and no explanation.\n"
            "Database: superhero\n"
            "Question: Which publisher is best?\n"
            "Answer:"
        )
        assert perfect.complete(prompt).text == "Unknown"


class TestDispatch:
    def test_unrecognised_prompt_raises(self, perfect):
        with pytest.raises(LLMError):
            perfect.complete("Hello there, write me a poem.")
