"""Tests for the cache bench payload and report formatting.

The end-to-end path (three real runs + BENCH_cache.json on disk) is
exercised through the artifact registry in the CLI tests; these tests
cover the pure pieces cheaply.
"""

from repro.eval.execution import ExecutionOutcome
from repro.harness.benchcache import _same_results, format_cache_report
from repro.harness.runner import UDFRun
from repro.llm.usage import Usage


def _run(rows, *, calls=5):
    run = UDFRun(model="m", shots=0, batch_size=5, pushdown=True)
    run.usage = Usage(100, 10, calls)
    run.ex_by_db = {"superhero": 0.5}
    run.outcomes = [
        ExecutionOutcome(
            qid="q1", database="superhero", correct=True,
            expected_rows=rows, actual_rows=rows,
        )
    ]
    return run


def _entry(calls, tokens):
    return {
        "llm_calls": calls, "input_tokens": tokens, "output_tokens": 0,
        "ex": 0.1, "ex_by_db": {"superhero": 0.1},
        "sequential_seconds": 10.0, "parallel_seconds": 3.0,
    }


def _payload():
    return {
        "model": "gpt-3.5-turbo", "shots": 0, "batch_size": 5, "workers": 4,
        "databases": ["superhero"],
        "baseline": {**_entry(100, 1000), "persistent": {}},
        "warm": {
            **_entry(0, 0), "zero_new_llm_calls": True,
            "persistent": {}, "results_match_cold": True,
        },
        "planned_pairs": {
            **_entry(80, 800),
            "adaptive_batch": {"batch_size": 6},
            "plan_stats": {"superhero": {"dedup_pct": 42.9}},
            "calls_saved_pct": 20.0, "tokens_saved_pct": 20.0,
            "ex_delta": 0.0,
        },
        "planner_stages": [],
    }


class TestSameResults:
    def test_identical_runs_match(self):
        assert _same_results(_run(1), _run(1))

    def test_usage_is_ignored(self):
        # the warm run pays nothing; only answers are compared
        assert _same_results(_run(1, calls=5), _run(1, calls=0))

    def test_different_rows_differ(self):
        assert not _same_results(_run(1), _run(2))


class TestFormatCacheReport:
    def test_report_names_all_three_runs(self):
        text = format_cache_report(_payload())
        for label in ("baseline", "warm rerun", "pairs"):
            assert label in text
        assert "warm rerun zero new calls: yes" in text
        assert "20.0% calls" in text
        assert "superhero: 42.9%" in text

    def test_report_flags_violations_loudly(self):
        payload = _payload()
        payload["warm"]["zero_new_llm_calls"] = False
        text = format_cache_report(payload)
        assert "warm rerun zero new calls: NO" in text
