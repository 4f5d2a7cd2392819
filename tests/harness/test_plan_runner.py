"""Run-level planning and persistent caching through the harness runners.

The acceptance bar for the planner is strict: a planned run in
``prompt`` mode must be **byte-identical** to the unplanned seed path —
same answers, same EX, same Usage totals — on the full SWAN benchmark,
at one worker and at eight.  These tests pin that bar.
"""

import pytest

from repro.harness.runner import GoldResults, run_hqdl, run_udf
from repro.plan import AdaptiveBatchPolicy


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


def _assert_same_run(a, b, *, compare_usage=True):
    """Question-by-question identity of two UDF runs."""
    if compare_usage:
        assert a.usage == b.usage
    assert a.ex_by_db == b.ex_by_db
    assert len(a.outcomes) == len(b.outcomes)
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.qid == y.qid
        assert x.correct == y.correct
        assert x.actual_rows == y.actual_rows
        assert x.error == y.error


class TestPromptModeByteIdentity:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_full_swan_identical_to_unplanned(self, swan, gold, workers):
        plain = run_udf(
            swan, "gpt-3.5-turbo", 0, gold=gold, workers=workers
        )
        planned = run_udf(
            swan, "gpt-3.5-turbo", 0, gold=gold, workers=workers,
            plan="prompt",
        )
        _assert_same_run(plain, planned)
        # the plan record is reported per database
        assert set(planned.plan_stats) == set(planned.ex_by_db)
        for stats in planned.plan_stats.values():
            assert stats["mode"] == "prompt"
            assert stats["dedup_pct"] > 0

    def test_invalid_plan_rejected(self, swan, gold):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_udf(swan, "perfect", 0, gold=gold, plan="eager")


class TestPersistentCacheRuns:
    def test_warm_rerun_issues_zero_new_calls(self, swan, gold, tmp_path):
        cold = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            plan="prompt", cache_dir=tmp_path,
        )
        warm = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            plan="prompt", cache_dir=tmp_path,
        )
        assert cold.usage.calls > 0
        assert warm.usage.calls == 0
        assert warm.usage.input_tokens == 0
        _assert_same_run(cold, warm, compare_usage=False)
        assert warm.persistent["superhero"]["stores"] == 0
        assert warm.persistent["superhero"]["hits"] > 0
        assert cold.persistent["superhero"]["hits"] == 0

    def test_cold_cached_run_identical_to_plain(self, swan, gold, tmp_path):
        plain = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold
        )
        cached = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            cache_dir=tmp_path,
        )
        _assert_same_run(plain, cached)

    def test_hqdl_warm_rerun_issues_zero_new_calls(self, swan, gold, tmp_path):
        cold = run_hqdl(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            cache_dir=tmp_path,
        )
        warm = run_hqdl(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            cache_dir=tmp_path,
        )
        assert cold.usage.calls > 0
        assert warm.usage.calls == 0
        assert warm.ex_by_db == cold.ex_by_db
        assert warm.persistent["superhero"]["hits"] > 0


class TestPairsModeSavings:
    def test_fewer_calls_and_tokens_than_seed(self, swan, gold):
        plain = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold
        )
        pairs = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            plan="pairs",
            batch_policy=AdaptiveBatchPolicy.for_model("gpt-3.5-turbo", 0),
        )
        assert pairs.usage.calls < plain.usage.calls
        assert pairs.usage.input_tokens < plain.usage.input_tokens
        stats = pairs.plan_stats["superhero"]
        assert stats["mode"] == "pairs"
        assert stats["keys_stored"] > 0
        # answers may drift within model noise, not collapse
        assert abs(
            pairs.ex_by_db["superhero"] - plain.ex_by_db["superhero"]
        ) <= 0.10
