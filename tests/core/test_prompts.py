"""Tests for HQDL prompt construction."""

import pytest

from repro.core.prompts import RowPromptBuilder
from repro.llm.chat import (
    ANSWER_MARKER,
    COLUMNS_MARKER,
    EXAMPLE_ENTRY_MARKER,
    TARGET_ENTRY_MARKER,
    VALUES_HINT_MARKER,
)


@pytest.fixture(scope="module")
def builder_factory(superhero_world):
    def make(shots=0):
        return RowPromptBuilder(
            superhero_world,
            superhero_world.expansion("superhero_info"),
            shots=shots,
        )

    return make


class TestZeroShot:
    def test_structure(self, builder_factory):
        prompt = builder_factory().build(("Batman", "Bruce Wayne"))
        assert "fill in the missing values" in prompt
        assert "no explanation" in prompt
        assert COLUMNS_MARKER in prompt
        assert TARGET_ENTRY_MARKER in prompt
        assert prompt.rstrip().endswith(ANSWER_MARKER)
        assert EXAMPLE_ENTRY_MARKER not in prompt

    def test_names_expansion_table(self, builder_factory):
        prompt = builder_factory().build(("Batman", "Bruce Wayne"))
        assert "`superhero_info` table" in prompt
        assert "`superhero` database" in prompt

    def test_lists_all_columns(self, builder_factory, superhero_world):
        prompt = builder_factory().build(("Batman", "Bruce Wayne"))
        for name in superhero_world.expansion("superhero_info").all_column_names():
            assert f"`{name}`" in prompt

    def test_value_lists_included(self, builder_factory):
        prompt = builder_factory().build(("Batman", "Bruce Wayne"))
        assert VALUES_HINT_MARKER in prompt
        assert "'DC Comics'" in prompt

    def test_target_entry_has_placeholders(self, builder_factory):
        prompt = builder_factory().build(("Batman", "Bruce Wayne"))
        target_line = [
            line for line in prompt.splitlines() if line.startswith(TARGET_ENTRY_MARKER)
        ][0]
        assert target_line.count("?") == 8  # the generated columns

    def test_field_count_stated(self, builder_factory):
        prompt = builder_factory().build(("Batman", "Bruce Wayne"))
        assert "10 fields" in prompt


class TestFewShot:
    def test_demo_count_matches_shots(self, builder_factory):
        for shots in (1, 3, 5):
            prompt = builder_factory(shots).build(("Batman", "Bruce Wayne"))
            assert prompt.count(EXAMPLE_ENTRY_MARKER) == shots

    def test_demos_static_across_targets(self, builder_factory):
        builder = builder_factory(3)
        first = builder.build(("Batman", "Bruce Wayne"))
        second = builder.build(("Thor", "Thor Odinson"))
        demo_lines = lambda p: [
            line for line in p.splitlines() if line.startswith(EXAMPLE_ENTRY_MARKER)
        ]
        assert demo_lines(first) == demo_lines(second)

    def test_demo_answers_are_ground_truth(self, builder_factory, superhero_world):
        builder = builder_factory(1)
        prompt = builder.build(("Batman", "Bruce Wayne"))
        lines = prompt.splitlines()
        demo_index = next(
            i for i, line in enumerate(lines) if line.startswith(EXAMPLE_ENTRY_MARKER)
        )
        answer_line = lines[demo_index + 1]
        assert answer_line.startswith(ANSWER_MARKER)
        assert "?" not in answer_line

    def test_negative_shots_rejected(self, superhero_world):
        with pytest.raises(ValueError):
            RowPromptBuilder(
                superhero_world,
                superhero_world.expansion("superhero_info"),
                shots=-1,
            )

    def test_more_shots_longer_prompt(self, builder_factory):
        key = ("Batman", "Bruce Wayne")
        lengths = [len(builder_factory(s).build(key)) for s in (0, 1, 3, 5)]
        assert lengths == sorted(lengths)
        assert lengths[0] < lengths[-1]


class TestFastBuildMatchesSpec:
    """``build`` splices the target line between cached constant parts;
    the declarative ``build_spec(key).render()`` is its definition."""

    @pytest.mark.parametrize("shots", [0, 3])
    def test_every_key_of_every_expansion_table(self, swan, shots):
        checked = 0
        for name in swan.database_names():
            world = swan.world(name)
            for expansion in world.expansions:
                builder = RowPromptBuilder(world, expansion, shots=shots)
                for key in world.keys_for(expansion.name):
                    assert builder.build(key) == builder.build_spec(key).render()
                    checked += 1
        assert checked > 500
