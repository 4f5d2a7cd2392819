"""Tests for the benchmark self-check API."""

import pytest

from repro.harness.validate import validate_swan
from repro.swan.base import Question
from repro.swan.benchmark import Swan


class TestValidateSwan:
    @pytest.fixture(scope="class")
    def report(self, swan):
        return validate_swan(swan)

    def test_shipped_benchmark_is_consistent(self, report):
        assert report.consistent, report.summary()
        assert report.questions == 120
        assert report.empty_gold == []

    def test_summary_reads_ok(self, report):
        assert report.summary().startswith("OK: all 120")

    def test_detects_broken_question(self, swan, superhero_world):
        broken = Question(
            qid="superhero_q99",
            database="superhero",
            text="deliberately inconsistent",
            gold_sql="SELECT COUNT(*) FROM superhero",
            hqdl_sql="SELECT COUNT(*) + 1 FROM superhero",
            blend_sql=(
                "SELECT COUNT(*) FROM superhero WHERE "
                "{{LLMMap('What is the gender of this superhero?', "
                "'superhero::superhero_name', 'superhero::full_name')}} "
                "= 'Female'"
            ),
        )
        tiny = Swan(worlds={"superhero": superhero_world}, questions=[broken])
        report = validate_swan(tiny)
        assert not report.consistent
        pipelines = {issue.pipeline for issue in report.issues}
        assert "hqdl" in pipelines
        assert "udf" in pipelines
        assert "mismatch" in report.summary()

    def test_detects_invalid_gold_sql(self, swan, superhero_world):
        broken = Question(
            qid="superhero_q98",
            database="superhero",
            text="broken gold",
            gold_sql="SELECT nothing FROM nowhere",
            hqdl_sql="SELECT 1",
            blend_sql="SELECT {{LLMQA('Which comic book publisher published "
                      "the superhero ''Hellboy''?')}}",
        )
        tiny = Swan(worlds={"superhero": superhero_world}, questions=[broken])
        report = validate_swan(tiny)
        assert any(issue.pipeline == "gold" for issue in report.issues)
