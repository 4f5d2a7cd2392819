"""Tests for batch-size policies."""

import pytest

from repro.plan.policy import (
    DEFAULT_MAX_BATCH_SIZE,
    AdaptiveBatchPolicy,
)


class TestAdaptiveBatchPolicy:
    """The worked examples from the module docstring, pinned."""

    def test_gpt35_zero_shot_picks_six(self):
        policy = AdaptiveBatchPolicy.for_model("gpt-3.5-turbo", 0)
        assert policy.batch_size() == 6

    def test_gpt4_zero_shot_picks_eight(self):
        policy = AdaptiveBatchPolicy.for_model("gpt-4-turbo", 0)
        assert policy.batch_size() == 8

    def test_perfect_model_hits_the_ceiling(self):
        policy = AdaptiveBatchPolicy.for_model("perfect", 0)
        assert policy.batch_size() == DEFAULT_MAX_BATCH_SIZE

    def test_shots_loosen_the_format_cap(self):
        # few-shot demonstrations lower the misalignment rate, so the
        # format cap can only move up with shots
        zero = AdaptiveBatchPolicy.for_model("gpt-3.5-turbo", 0)
        five = AdaptiveBatchPolicy.for_model("gpt-3.5-turbo", 5)
        assert five.batch_size() >= zero.batch_size()

    def test_floor_is_respected(self):
        # a punishing budget cannot push the size below BlendSQL's 5
        policy = AdaptiveBatchPolicy.for_model(
            "gpt-3.5-turbo", 0, max_item_loss=0.001, misalign_budget=0.001
        )
        assert policy.batch_size() == 5

    def test_ceiling_is_respected(self):
        policy = AdaptiveBatchPolicy.for_model(
            "gpt-3.5-turbo", 0, ceiling=6, max_item_loss=0.5,
            misalign_budget=10.0,
        )
        assert policy.batch_size() <= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy.for_model("perfect", 0, floor=0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy.for_model("perfect", 0, floor=8, ceiling=4)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy.for_model("perfect", 0, max_item_loss=1.5)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy.for_model("perfect", 0, misalign_budget=0)

    def test_explain_names_both_caps(self):
        explanation = AdaptiveBatchPolicy.for_model("gpt-3.5-turbo", 0).explain()
        assert explanation["batch_size"] == 6
        assert explanation["accuracy_cap"] is not None
        assert explanation["format_cap"] is not None
        assert explanation["model"] == "gpt-3.5-turbo"

    def test_explain_perfect_model_has_no_caps(self):
        explanation = AdaptiveBatchPolicy.for_model("perfect", 0).explain()
        assert explanation["accuracy_cap"] is None
        assert explanation["format_cap"] is None
