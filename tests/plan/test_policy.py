"""Tests for the adaptive batch size."""

import pytest

from repro.llm.profiles import list_profiles
from repro.plan.policy import (
    DEFAULT_MAX_BATCH_SIZE,
    adaptive_batch_size,
    explain_batch_size,
)


class TestAdaptiveBatchPolicy:
    """The worked examples from the docstring, pinned."""

    def test_gpt35_zero_shot_picks_six(self):
        assert adaptive_batch_size("gpt-3.5-turbo", 0) == 6

    def test_gpt4_zero_shot_picks_eight(self):
        assert adaptive_batch_size("gpt-4-turbo", 0) == 8

    def test_perfect_model_hits_the_ceiling(self):
        assert adaptive_batch_size("perfect", 0) == DEFAULT_MAX_BATCH_SIZE == 20

    def test_shots_loosen_the_format_cap(self):
        # few-shot demonstrations lower the misalignment rate, so the
        # format cap can only move up with shots
        zero = adaptive_batch_size("gpt-3.5-turbo", 0)
        five = adaptive_batch_size("gpt-3.5-turbo", 5)
        assert five >= zero

    def test_floor_is_respected(self):
        # gpt-3.5-turbo's caps are both 6 at 0 shots: a floor above
        # both caps wins, one below them does not bind
        assert adaptive_batch_size("gpt-3.5-turbo", 0, floor=8) == 8
        assert adaptive_batch_size("gpt-3.5-turbo", 0, floor=5) == 6

    def test_ceiling_is_respected(self):
        for name in list_profiles():
            for shots in (0, 2, 5):
                for floor in (1, 5, DEFAULT_MAX_BATCH_SIZE):
                    size = adaptive_batch_size(name, shots, floor=floor)
                    assert floor <= size <= DEFAULT_MAX_BATCH_SIZE

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_batch_size("perfect", 0, floor=0)
        with pytest.raises(ValueError):
            adaptive_batch_size("perfect", 0, floor=DEFAULT_MAX_BATCH_SIZE + 1)

    def test_explain_names_both_caps(self):
        explanation = explain_batch_size("gpt-3.5-turbo", 0)
        assert explanation["batch_size"] == 6
        assert explanation["accuracy_cap"] is not None
        assert explanation["format_cap"] is not None
        assert explanation["model"] == "gpt-3.5-turbo"

    def test_explain_perfect_model_has_no_caps(self):
        explanation = explain_batch_size("perfect", 0)
        assert explanation["accuracy_cap"] is None
        assert explanation["format_cap"] is None
        assert explanation["batch_size"] == explanation["ceiling"] == 20
