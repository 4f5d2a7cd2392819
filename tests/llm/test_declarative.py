"""Tests for the declarative prompt toolkit."""

import pytest

from repro.llm.declarative import PromptSpec, PromptSpecError, Section


class TestSection:
    def test_requires_kind_and_content(self):
        with pytest.raises(PromptSpecError):
            Section("", ("line",))
        with pytest.raises(PromptSpecError):
            Section("task", ())

    def test_rejects_embedded_newlines(self):
        with pytest.raises(PromptSpecError):
            Section("task", ("two\nlines",))

    def test_render(self):
        assert Section("task", ("a", "b")).render() == "a\nb"


class TestPromptSpec:
    def test_fluent_building_and_order(self):
        spec = PromptSpec().add_task("do it").add_rule("no explanation").add_cue("Answer:")
        assert list(spec.kinds()) == ["task", "rule", "cue"]
        assert spec.render() == "do it\nno explanation\nAnswer:"

    def test_by_kind(self):
        spec = PromptSpec().add_demonstration("d1").add_demonstration("d2").add_task("t")
        assert spec.demonstration_count() == 2
        assert len(spec.by_kind("task")) == 1

    def test_empty_render_rejected(self):
        with pytest.raises(PromptSpecError):
            PromptSpec().render()

    def test_validate_required_kinds(self):
        spec = PromptSpec().add_task("t")
        spec.validate(require=("task",))
        with pytest.raises(PromptSpecError, match="missing required"):
            spec.validate(require=("task", "target"))

    def test_token_estimate_matches_render(self):
        from repro.llm.tokenizer import count_tokens

        spec = PromptSpec().add_task("count these tokens precisely")
        assert spec.token_estimate() == count_tokens(spec.render())


class TestHQDLIntegration:
    def test_row_prompt_is_a_spec(self, superhero_world):
        from repro.core.prompts import RowPromptBuilder

        builder = RowPromptBuilder(
            superhero_world, superhero_world.expansion("superhero_info"), shots=3
        )
        spec = builder.build_spec(("Batman", "Bruce Wayne"))
        assert spec.demonstration_count() == 3
        spec.validate(require=("task", "rule", "schema", "target", "cue"))
        assert spec.render() == builder.build(("Batman", "Bruce Wayne"))
