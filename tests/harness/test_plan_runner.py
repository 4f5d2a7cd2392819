"""Run-level planning and persistent caching through the harness runners.

A ``plan="pairs"`` run must not depend on the worker count: the same
answers, the same Usage and the same multiset of paid call sizes on the
full SWAN benchmark at eight workers as at one, and on a second
one-worker run in the same process.  A cold run over the persistent
prompt cache is byte-identical to a plain run, and a warm rerun pays
nothing and leaves the cache files' bytes as they were.
"""

import hashlib
from collections import Counter

import pytest

from repro.harness.runner import GoldResults, run_hqdl, run_udf
from repro.plan import adaptive_batch_size


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


def _digests(directory):
    """sha256 of every cache file under ``directory``, by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.sqlite"))
    }


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


@pytest.fixture(scope="module")
def pairs_one_worker(swan, gold):
    """The reference ``plan="pairs"`` run of the full SWAN at one worker."""
    return run_udf(
        swan, "gpt-3.5-turbo", 0, gold=gold, workers=1, plan="pairs"
    )


class TestPairsMode:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_full_swan_identical_to_one_worker_run(
        self, swan, gold, pairs_one_worker, workers
    ):
        # at 1 this is a rerun in the same process: nothing may carry over
        run = run_udf(
            swan, "gpt-3.5-turbo", 0, gold=gold, workers=workers,
            plan="pairs",
        )
        _assert_same_run(pairs_one_worker, run)
        assert Counter(run.call_sizes) == Counter(pairs_one_worker.call_sizes)
        assert run.plan_stats == pairs_one_worker.plan_stats
        # the plan record is reported per database
        assert set(run.plan_stats) == set(run.ex_by_db)
        for stats in run.plan_stats.values():
            assert stats["dedup_pct"] > 0

    @pytest.mark.parametrize("plan", ["eager", "prompt"])
    def test_invalid_plan_rejected(self, swan, gold, plan):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_udf(swan, "perfect", 0, gold=gold, plan=plan)


class TestPersistentCacheRuns:
    def test_warm_rerun_issues_zero_new_calls(self, swan, gold, tmp_path):
        cold = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            cache_dir=tmp_path,
        )
        warm = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], gold=gold,
            cache_dir=tmp_path,
        )
        assert cold.usage.calls > 0
        assert warm.usage.calls == 0
        assert warm.usage.input_tokens == 0
        _assert_same_run(cold, warm, compare_usage=False)
        assert warm.persistent["superhero"]["stores"] == 0
        assert warm.persistent["superhero"]["hits"] > 0
        assert cold.persistent["superhero"]["hits"] == 0

    def test_warm_rerun_writes_nothing_to_disk(self, swan, gold, tmp_path):
        run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], cache_dir=tmp_path
        )
        before = _digests(tmp_path)
        warm = run_udf(
            swan, "gpt-3.5-turbo", 0, databases=["superhero"], cache_dir=tmp_path
        )
        assert warm.usage.calls == 0
        assert before and _digests(tmp_path) == before

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
            batch_size=adaptive_batch_size("gpt-3.5-turbo", 0),
        )
        assert pairs.usage.calls < plain.usage.calls
        assert pairs.usage.input_tokens < plain.usage.input_tokens
        stats = pairs.plan_stats["superhero"]
        assert stats["keys_stored"] > 0
        # answers may drift within model noise, not collapse
        assert abs(
            pairs.ex_by_db["superhero"] - plain.ex_by_db["superhero"]
        ) <= 0.10
