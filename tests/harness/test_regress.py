"""Tests for the regression gate (baseline IO, diffing, end-to-end run)."""

import json

import pytest

from repro.harness.regress import (
    BASELINE_FIELDS,
    diff_against_baseline,
    load_baseline,
    run_regress,
    scale10_makespan,
    serve_p99,
    slo_budget_consumed,
    write_baseline,
)
from repro.obs.ledger import RunLedger


def _row(ex=0.5, input_tokens=900, output_tokens=100, makespan=10.0):
    return {
        "id": 1,
        "label": "regress",
        "pipeline": "udf",
        "fingerprint": "abc123def456",
        "ex": ex,
        "f1": None,
        "llm_calls": 10,
        "input_tokens": input_tokens,
        "output_tokens": output_tokens,
        "makespan": makespan,
        "payload": {"config": {"model": "m"}},
    }


class TestBaselineIO:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "base.json"
        written = write_baseline(path, _row())
        loaded = load_baseline(path)
        assert loaded == written
        assert loaded["total_tokens"] == 1000
        assert loaded["ex"] == pytest.approx(0.5)
        for field in BASELINE_FIELDS:
            assert field in loaded

    def test_missing_file(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") is None

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert load_baseline(path) is None

    def test_incomplete_baseline(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"ex": 0.5}), encoding="utf-8")
        assert load_baseline(path) is None

    def test_non_dict_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert load_baseline(path) is None


class TestDiff:
    def _baseline(self, ex=0.5, total_tokens=1000, makespan=10.0):
        return {
            "label": "regress",
            "pipeline": "udf",
            "fingerprint": "abc123def456",
            "llm_calls": 10,
            "config": {"model": "m"},
            "ex": ex,
            "total_tokens": total_tokens,
            "makespan": makespan,
        }

    def test_identical_passes(self):
        ok, lines = diff_against_baseline(_row(), self._baseline())
        assert ok
        assert sum("[ok]" in line for line in lines) == 3

    def test_ex_drop_fails(self):
        ok, lines = diff_against_baseline(
            _row(ex=0.4), self._baseline(ex=0.5), max_ex_drop=0.05
        )
        assert not ok
        assert any("EX" in line and "FAIL" in line for line in lines)

    def test_ex_drop_within_threshold(self):
        ok, _ = diff_against_baseline(
            _row(ex=0.46), self._baseline(ex=0.5), max_ex_drop=0.05
        )
        assert ok

    def test_token_growth_fails(self):
        ok, lines = diff_against_baseline(
            _row(input_tokens=1150, output_tokens=0),
            self._baseline(total_tokens=1000),
            max_token_growth=0.10,
        )
        assert not ok
        assert any("tokens" in line and "FAIL" in line for line in lines)

    def test_makespan_growth_fails(self):
        ok, lines = diff_against_baseline(
            _row(makespan=20.0), self._baseline(makespan=10.0),
            max_makespan_growth=0.25,
        )
        assert not ok
        assert any("makespan" in line and "FAIL" in line for line in lines)

    def test_improvement_always_passes(self):
        ok, _ = diff_against_baseline(
            _row(ex=0.9, input_tokens=100, output_tokens=0, makespan=1.0),
            self._baseline(),
        )
        assert ok

    def test_fingerprint_change_noted_not_failed(self):
        baseline = self._baseline()
        baseline["fingerprint"] = "otherprint000"
        ok, lines = diff_against_baseline(_row(), baseline)
        assert ok
        assert any("fingerprint changed" in line for line in lines)


class TestScale10Guard:
    def _bench(self, tmp_path, makespan=50.0):
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps({
            "scales": {
                "10": {"pipelines": {"udf": {"makespan_seconds": makespan}}}
            }
        }), encoding="utf-8")
        return path

    def test_reads_the_scale10_udf_makespan(self, tmp_path):
        assert scale10_makespan(self._bench(tmp_path, 42.5)) == 42.5

    def test_missing_file_or_rung_is_none(self, tmp_path):
        assert scale10_makespan(tmp_path / "nope.json") is None
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps({"scales": {"1": {}}}), encoding="utf-8")
        assert scale10_makespan(path) is None

    def test_baseline_records_it(self, tmp_path):
        path = tmp_path / "base.json"
        written = write_baseline(path, _row(), scale10_makespan=50.0)
        assert written["scale10_makespan"] == 50.0
        assert load_baseline(path)["scale10_makespan"] == 50.0

    def test_growth_beyond_threshold_fails(self):
        baseline = {**TestDiff._baseline(self), "scale10_makespan": 50.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_scale10=70.0, max_makespan_growth=0.25
        )
        assert not ok
        assert any(
            "scale10 makespan" in line and "[FAIL]" in line for line in lines
        )

    def test_growth_within_threshold_passes(self):
        baseline = {**TestDiff._baseline(self), "scale10_makespan": 50.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_scale10=55.0, max_makespan_growth=0.25
        )
        assert ok
        assert any(
            "scale10 makespan" in line and "[ok]" in line for line in lines
        )

    def test_missing_bench_is_a_note_not_a_failure(self):
        baseline = {**TestDiff._baseline(self), "scale10_makespan": 50.0}
        ok, lines = diff_against_baseline(_row(), baseline, fresh_scale10=None)
        assert ok
        assert any("not checked" in line for line in lines)

    def test_missing_baseline_key_is_a_note_not_a_failure(self):
        ok, lines = diff_against_baseline(
            _row(), TestDiff._baseline(self), fresh_scale10=50.0
        )
        assert ok
        assert any("no scale10_makespan" in line for line in lines)


class TestServeP99Guard:
    def _bench(self, tmp_path, p99=30.0):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({
            "levels": [
                {"multiplier": 1.0, "p99": 99.0},
                {"multiplier": 0.25, "p99": p99},
            ]
        }), encoding="utf-8")
        return path

    def test_reads_the_lowest_level_p99(self, tmp_path):
        assert serve_p99(self._bench(tmp_path, 12.5)) == 12.5

    def test_missing_file_or_levels_is_none(self, tmp_path):
        assert serve_p99(tmp_path / "nope.json") is None
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({"levels": []}), encoding="utf-8")
        assert serve_p99(path) is None

    def test_baseline_records_it(self, tmp_path):
        path = tmp_path / "base.json"
        written = write_baseline(path, _row(), serve_p99=30.0)
        assert written["serve_p99"] == 30.0
        assert load_baseline(path)["serve_p99"] == 30.0

    def test_growth_beyond_threshold_fails(self):
        baseline = {**TestDiff._baseline(self), "serve_p99": 30.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_serve_p99=45.0, max_makespan_growth=0.25
        )
        assert not ok
        assert any(
            "serve p99" in line and "[FAIL]" in line for line in lines
        )

    def test_growth_within_threshold_passes(self):
        baseline = {**TestDiff._baseline(self), "serve_p99": 30.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_serve_p99=33.0, max_makespan_growth=0.25
        )
        assert ok
        assert any("serve p99" in line and "[ok]" in line for line in lines)

    def test_missing_bench_is_a_note_not_a_failure(self):
        baseline = {**TestDiff._baseline(self), "serve_p99": 30.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_serve_p99=None
        )
        assert ok
        assert any("serve p99 not checked" in line for line in lines)

    def test_missing_baseline_key_is_a_note_not_a_failure(self):
        ok, lines = diff_against_baseline(
            _row(), TestDiff._baseline(self), fresh_serve_p99=30.0
        )
        assert ok
        assert any("no serve_p99" in line for line in lines)


class TestRunRegress:
    """End-to-end: one real (deterministic, mock-oracle) workload run."""

    def test_update_then_pass_then_breach(self, tmp_path):
        ledger = tmp_path / "ledger.sqlite"
        baseline = tmp_path / "baseline.json"

        code, text = run_regress(
            ledger_path=ledger, baseline_path=baseline, update_baseline=True
        )
        assert code == 0
        assert "baseline updated" in text
        assert baseline.exists()

        # identical rerun: deterministic workload, must pass cleanly
        code, text = run_regress(ledger_path=ledger, baseline_path=baseline)
        assert code == 0
        assert "regression check: PASS" in text

        # poison the baseline: the same run now reads as a regression
        doctored = json.loads(baseline.read_text())
        doctored["ex"] = doctored["ex"] + 0.5
        baseline.write_text(json.dumps(doctored))
        code, text = run_regress(ledger_path=ledger, baseline_path=baseline)
        assert code == 1
        assert "regression check: FAIL" in text

        # all three runs were appended to the ledger
        with RunLedger(ledger) as led:
            assert len(led.runs(label="regress")) == 3

    def test_missing_baseline_fails_with_hint(self, tmp_path):
        code, text = run_regress(
            ledger_path=tmp_path / "l.sqlite",
            baseline_path=tmp_path / "missing.json",
        )
        assert code == 1
        assert "--update-baseline" in text


class TestSloBudgetGuard:
    def _bench(self, tmp_path, budget=0.0):
        path = tmp_path / "BENCH_slo.json"
        path.write_text(json.dumps({
            "levels": [
                {
                    "multiplier": 1.0,
                    "budgets": {"availability": {"budget_consumed": 0.9}},
                },
                {
                    "multiplier": 0.25,
                    "budgets": {"availability": {"budget_consumed": budget}},
                },
            ]
        }), encoding="utf-8")
        return path

    def test_reads_the_lowest_level_budget(self, tmp_path):
        assert slo_budget_consumed(self._bench(tmp_path, 0.015)) == 0.015

    def test_missing_file_or_levels_is_none(self, tmp_path):
        assert slo_budget_consumed(tmp_path / "nope.json") is None
        path = tmp_path / "BENCH_slo.json"
        path.write_text(json.dumps({"levels": []}), encoding="utf-8")
        assert slo_budget_consumed(path) is None

    def test_baseline_records_it(self, tmp_path):
        path = tmp_path / "base.json"
        written = write_baseline(path, _row(), slo_budget=0.0)
        assert written["slo_budget"] == 0.0
        assert load_baseline(path)["slo_budget"] == 0.0

    def test_absolute_increase_beyond_threshold_fails(self):
        # baseline ~0: relative growth would be inf, the bound is absolute
        baseline = {**TestDiff._baseline(self), "slo_budget": 0.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_slo_budget=0.05
        )
        assert not ok
        assert any(
            "slo budget" in line and "[FAIL]" in line for line in lines
        )

    def test_increase_within_threshold_passes(self):
        baseline = {**TestDiff._baseline(self), "slo_budget": 0.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_slo_budget=0.01
        )
        assert ok
        assert any("slo budget" in line and "[ok]" in line for line in lines)

    def test_missing_bench_is_a_note_not_a_failure(self):
        baseline = {**TestDiff._baseline(self), "slo_budget": 0.0}
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_slo_budget=None
        )
        assert ok
        assert any("error budget not checked" in line for line in lines)

    def test_missing_baseline_key_is_a_note_not_a_failure(self):
        ok, lines = diff_against_baseline(
            _row(), TestDiff._baseline(self), fresh_slo_budget=0.0
        )
        assert ok
        assert any("no slo_budget" in line for line in lines)


class TestServeTokensPerAnswer:
    """The 1x tokens-per-answer reader feeding the serving-economy pin."""

    def _bench(self, tmp_path, *, level_extra=None):
        from repro.harness.regress import serve_tokens_per_answer

        level = {"multiplier": 1.0, "p99": 10.0}
        level.update(level_extra or {})
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({
            "levels": [
                {"multiplier": 0.5, "p99": 5.0},
                level,
            ],
        }), encoding="utf-8")
        return serve_tokens_per_answer(path)

    def test_falls_back_to_the_level_figure(self, tmp_path):
        value = self._bench(
            tmp_path, level_extra={"tokens_per_answer": 100.0}
        )
        assert value == 100.0

    def test_missing_key_is_none(self, tmp_path):
        assert self._bench(tmp_path) is None

    def test_missing_file_is_none(self, tmp_path):
        from repro.harness.regress import serve_tokens_per_answer

        assert serve_tokens_per_answer(tmp_path / "nope.json") is None

    def test_no_1x_level_is_none(self, tmp_path):
        from repro.harness.regress import serve_tokens_per_answer

        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({
            "levels": [{"multiplier": 2.0, "tokens_per_answer": 9.0}],
        }), encoding="utf-8")
        assert serve_tokens_per_answer(path) is None

    def test_written_into_baseline(self, tmp_path):
        path = tmp_path / "base.json"
        written = write_baseline(path, _row(), serve_tokens_per_answer=80.0)
        assert written["serve_tokens_per_answer"] == 80.0
        assert load_baseline(path)["serve_tokens_per_answer"] == 80.0

    def test_growth_breach_fails(self):
        baseline = {
            **TestDiff._baseline(self), "serve_tokens_per_answer": 100.0,
        }
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_serve_tpa=150.0
        )
        assert not ok
        assert any(
            "serve tokens/answer" in line and "[FAIL]" in line
            for line in lines
        )

    def test_growth_within_threshold_passes(self):
        baseline = {
            **TestDiff._baseline(self), "serve_tokens_per_answer": 100.0,
        }
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_serve_tpa=105.0
        )
        assert ok
        assert any(
            "serve tokens/answer" in line and "[ok]" in line
            for line in lines
        )

    def test_missing_fresh_value_is_a_note(self):
        baseline = {
            **TestDiff._baseline(self), "serve_tokens_per_answer": 100.0,
        }
        ok, lines = diff_against_baseline(
            _row(), baseline, fresh_serve_tpa=None
        )
        assert ok
        assert any("serve economy not checked" in line for line in lines)

    def test_missing_baseline_key_is_a_note(self):
        ok, lines = diff_against_baseline(
            _row(), TestDiff._baseline(self), fresh_serve_tpa=80.0
        )
        assert ok
        assert any(
            "no serve_tokens_per_answer" in line for line in lines
        )
