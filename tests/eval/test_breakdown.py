"""Tests for the error-breakdown analysis."""

import pytest

from repro.harness.breakdown import analyze_run
from repro.harness.runner import GoldResults, run_hqdl


@pytest.fixture(scope="module")
def run_and_breakdown(swan):
    gold = GoldResults(swan)
    run = run_hqdl(swan, "gpt-3.5-turbo", 0, gold=gold)
    return run, analyze_run(swan, run)


class TestAnalyzeRun:
    def test_totals_match_run(self, run_and_breakdown):
        run, breakdown = run_and_breakdown
        assert breakdown.total == len(run.outcomes) == 120
        assert breakdown.failures == sum(
            1 for outcome in run.outcomes if not outcome.correct
        )
        assert breakdown.failure_rate() == pytest.approx(1 - run.overall_ex)

    def test_per_database_totals(self, run_and_breakdown):
        _, breakdown = run_and_breakdown
        assert set(breakdown.totals_by_database.values()) == {30}

    def test_limit_masking_effect(self, run_and_breakdown):
        """The Section 5.3 observation: LIMIT questions fail less often."""
        _, breakdown = run_and_breakdown
        assert breakdown.limit_total > 10
        assert breakdown.limit_failure_rate() < breakdown.scan_failure_rate()

    def test_kind_totals_cover_failures(self, run_and_breakdown):
        _, breakdown = run_and_breakdown
        for kind, failures in breakdown.by_kind.items():
            assert failures <= breakdown.totals_by_kind[kind]

    def test_render_includes_key_lines(self, run_and_breakdown):
        _, breakdown = run_and_breakdown
        text = breakdown.render()
        assert "Error breakdown: gpt-3.5-turbo, 0-shot" in text
        assert "masking effect" in text
        assert "wrong number of rows" in text

    def test_perfect_run_has_no_failures(self, swan):
        gold = GoldResults(swan)
        run = run_hqdl(swan, "perfect", 0, databases=["superhero"], gold=gold)
        breakdown = analyze_run(swan, run)
        assert breakdown.failures == 0
        assert breakdown.qids == []
