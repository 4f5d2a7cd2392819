"""Tests for the `python -m repro.harness` CLI."""

import json

import pytest

from repro.harness.__main__ import main
from repro.harness.artifacts import ARTIFACTS, WALL_FIELDS


@pytest.fixture(scope="module")
def serve_artifact(tmp_path_factory):
    """The serve artifact written once at a short horizon: (dir, report)."""
    directory = tmp_path_factory.mktemp("serve")
    return directory, ARTIFACTS["serve"].write(directory, horizon=40.0)


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Formula One" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "Marvel" in capsys.readouterr().out

    def test_multiple_targets(self, capsys):
        assert main(["table1", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 1" in out

    def test_unknown_target(self, capsys):
        assert main(["table9"]) == 2
        err = capsys.readouterr().err
        assert "unknown targets" in err
        assert "usage:" in err


class TestCLIHardening:
    def test_unknown_target_exits_nonzero_with_usage(self, capsys):
        assert main(["nonsense"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown targets: nonsense" in captured.err
        assert "usage:" in captured.err

    def test_unknown_flag_exits_nonzero(self, capsys):
        assert main(["--frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown flag: --frobnicate" in err
        assert "usage:" in err

    def test_bad_workers_value(self, capsys):
        assert main(["run-udf", "--workers=banana"]) == 2
        err = capsys.readouterr().err
        assert "--workers requires an integer" in err

    def test_nonpositive_workers(self, capsys):
        assert main(["run-udf", "--workers=0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_databases_flag_requires_value(self, capsys):
        assert main(["run-udf", "--databases="]) == 2
        assert "--databases requires" in capsys.readouterr().err

    def test_help_exits_zero_with_usage(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert "usage:" in captured.out
        assert captured.err == ""

    def test_mixed_unknown_targets_listed(self, capsys):
        assert main(["table1", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err


class TestTraceTarget:
    def test_trace_writes_artifacts(self, tmp_path):
        out = ARTIFACTS["trace"].write(tmp_path, databases=["superhero"])
        assert "UDF per-stage breakdown" in out
        assert "HQDL per-stage breakdown" in out
        for name in ARTIFACTS["trace"].files + ARTIFACTS["trace"].digests:
            assert (tmp_path / name).exists(), name

    def test_trace_excluded_from_all(self):
        """The trace files are written only by `artifacts`, never by `all`."""
        from repro.harness.__main__ import _GENERATORS

        assert "trace" in ARTIFACTS
        assert "trace" not in _GENERATORS


class TestBatchSizeAndCacheDirFlags:
    def test_bad_batch_size_value(self, capsys):
        assert main(["run-udf", "--batch-size=abc"]) == 2
        err = capsys.readouterr().err
        assert "--batch-size requires an integer" in err
        assert "usage:" in err

    def test_nonpositive_batch_size(self, capsys):
        assert main(["run-udf", "--batch-size=0"]) == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err

    def test_flags_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--batch-size=N" in out
        assert "--cache-dir" not in out


class TestScaleAndParallelismFlags:
    def test_bad_scale_value(self, capsys):
        assert main(["run-udf", "--scale=abc"]) == 2
        err = capsys.readouterr().err
        assert "--scale requires an integer" in err
        assert "usage:" in err

    def test_nonpositive_scale(self, capsys):
        assert main(["run-udf", "--scale=0"]) == 2
        err = capsys.readouterr().err
        assert "--scale must be >= 1" in err
        assert "usage:" in err

    def test_bad_parallelism_value(self, capsys):
        assert main(["run-udf", "--parallelism=processes"]) == 2
        err = capsys.readouterr().err
        assert "unknown flag: --parallelism=processes" in err
        assert "usage:" in err

    def test_run_udf_prints_per_database_ex(self, capsys):
        assert main(["run-udf", "--databases=superhero", "--scale=1"]) == 0
        out = capsys.readouterr().out
        assert "UDF run" in out
        assert "superhero" in out
        assert "scale=1" in out

    def test_run_hqdl_prints_per_database_ex(self, capsys):
        assert main(["run-hqdl", "--databases=superhero"]) == 0
        out = capsys.readouterr().out
        assert "HQDL run" in out
        assert "scale=1" in out
        assert "parallelism" not in out

    def test_scale_targets_excluded_from_all(self):
        from repro.harness.__main__ import _EXCLUDED_FROM_ALL, _GENERATORS

        for target in ("run-udf", "run-hqdl", "bench-scale"):
            assert target in _GENERATORS
            assert target in _EXCLUDED_FROM_ALL

    def test_scale_flags_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--scale=N" in out
        assert "--parallelism" not in out


class TestExplainCommand:
    def test_requires_database_and_question(self, capsys):
        assert main(["explain"]) == 2
        err = capsys.readouterr().err
        assert "explain requires --database=NAME and --question=REF" in err
        assert "usage:" in err

    def test_unknown_database(self, capsys):
        assert main(["explain", "--database=nope", "--question=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown database" in err
        assert "usage:" in err

    def test_question_index_out_of_range(self, capsys):
        assert main(["explain", "--database=superhero", "--question=99"]) == 2
        assert "question index must be" in capsys.readouterr().err

    def test_bad_pipeline_value(self, capsys):
        assert main([
            "explain", "--database=superhero", "--question=1",
            "--pipeline=magic",
        ]) == 2
        assert "--pipeline must be 'udf' or 'hqdl'" in capsys.readouterr().err

    def test_must_be_invoked_alone(self, capsys):
        assert main(["explain", "table1"]) == 2
        assert "invoked alone" in capsys.readouterr().err

    def test_explains_a_question(self, capsys):
        assert main([
            "explain", "--database=superhero", "--question=1", "--workers=4",
        ]) == 0
        out = capsys.readouterr().out
        assert "== superhero_q01 (udf" in out
        assert "verdict:" in out
        assert "span tree" in out
        assert "provenance:" in out

    def test_explains_by_qid_and_pipeline(self, capsys):
        assert main([
            "explain", "--database=superhero",
            "--question=superhero_q07", "--pipeline=hqdl",
        ]) == 0
        out = capsys.readouterr().out
        assert "== superhero_q07 (hqdl" in out

    def test_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "explain" in out
        assert "regress" in out
        assert "--update-baseline" in out


class TestRegressCommand:
    def test_bad_threshold_value(self, capsys):
        assert main(["regress", "--max-ex-drop=lots"]) == 2
        err = capsys.readouterr().err
        assert "--max-ex-drop requires a number" in err

    def test_negative_threshold_rejected(self, capsys):
        assert main(["regress", "--max-token-growth=-1"]) == 2
        assert "--max-token-growth must be >= 0" in capsys.readouterr().err

    def test_update_baseline_takes_no_value(self, capsys):
        assert main(["regress", "--update-baseline=yes"]) == 2
        assert "--update-baseline takes no value" in capsys.readouterr().err

    def test_ledger_and_baseline_require_values(self, capsys):
        assert main(["regress", "--ledger="]) == 2
        assert "--ledger requires a file path" in capsys.readouterr().err
        assert main(["regress", "--baseline="]) == 2
        assert "--baseline requires a file path" in capsys.readouterr().err

    def test_must_be_invoked_alone(self, capsys):
        assert main(["regress", "explain"]) == 2
        assert "invoked alone" in capsys.readouterr().err

    def test_end_to_end_gate(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["regress", "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "baseline updated" in out
        assert (tmp_path / "BENCH_ledger.sqlite").exists()
        assert (tmp_path / "baselines" / "regress_baseline.json").exists()
        assert main(["regress"]) == 0
        assert "regression check: PASS" in capsys.readouterr().out


class TestServeTargets:
    def test_bad_seed_value(self, capsys):
        assert main(["serve", "--seed=abc"]) == 2
        err = capsys.readouterr().err
        assert "--seed requires an integer" in err

    def test_negative_seed_rejected(self, capsys):
        assert main(["dash", "--seed=-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_bad_horizon_value(self, capsys):
        assert main(["serve", "--horizon=soon"]) == 2
        assert "--horizon requires a number" in capsys.readouterr().err

    def test_nonpositive_horizon_rejected(self, capsys):
        assert main(["serve", "--horizon=0"]) == 2
        assert "--horizon must be > 0" in capsys.readouterr().err

    def test_serve_targets_excluded_from_all(self):
        from repro.harness.__main__ import _EXCLUDED_FROM_ALL, _GENERATORS

        assert "serve" in _GENERATORS
        assert "serve" in _EXCLUDED_FROM_ALL
        assert "loadtest" not in _GENERATORS

    def test_serve_prints_a_demo_run(self, capsys):
        assert main(["serve", "--horizon=40"]) == 0
        out = capsys.readouterr().out
        assert "Query server demo run" in out
        assert "accounting OK" in out
        assert "interactive" in out and "batch" in out

    def test_loadtest_writes_bench_serve(self, serve_artifact):
        directory, out = serve_artifact
        assert "Serving load test" in out
        payload = json.loads((directory / "BENCH_serve.json").read_text())
        assert payload["horizon"] == 40.0

    def test_serve_flags_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed=N" in out
        assert "--horizon=SECONDS" in out


class TestObservabilityCLI:
    def test_bad_window_value(self, capsys):
        assert main(["serve", "--window=wide"]) == 2
        err = capsys.readouterr().err
        assert "--window requires a number" in err
        assert "usage:" in err

    def test_nonpositive_window_rejected(self, capsys):
        for bad in ("0", "-5"):
            assert main(["dash", f"--window={bad}"]) == 2
            assert "--window must be > 0" in capsys.readouterr().err

    def test_window_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        assert "--window=SECONDS" in capsys.readouterr().out

    def test_dash_excluded_from_all(self):
        from repro.harness.__main__ import (
            _EXCLUDED_FROM_ALL, _FLAG_TARGETS, _GENERATORS,
        )

        assert "dash" in _GENERATORS
        assert "dash" in _EXCLUDED_FROM_ALL
        assert "window" in _FLAG_TARGETS["dash"]
        assert "window" in _FLAG_TARGETS["serve"]

    def test_dash_renders_the_dashboard(self, capsys):
        assert main(["dash", "--horizon=40", "--window=10"]) == 0
        out = capsys.readouterr().out
        assert "Serving dashboard" in out
        assert "10s windows" in out
        assert "SLO error budgets" in out
        assert "Flight recorder" in out

    def test_serve_reports_slo_budgets(self, capsys):
        assert main(["serve", "--horizon=40"]) == 0
        out = capsys.readouterr().out
        assert "SLO error budgets" in out
        assert "availability" in out

    def test_loadtest_writes_slo_artifacts(self, serve_artifact):
        directory, out = serve_artifact
        assert "SLO report" in out
        assert (directory / "BENCH_slo.json").exists()
        assert (directory / "BENCH_incidents.jsonl").exists()


class TestBenchCacheTarget:
    def test_bench_cache_writes_artifact(self, tmp_path):
        out = ARTIFACTS["cache"].write(tmp_path, databases=["superhero"])
        assert "Call planning & persistent cache" in out
        assert "byte-identical planned run: yes" in out
        assert "warm rerun zero new calls: yes" in out
        assert "plan:dispatch" in out  # wall-clock stage table, text only
        payload = json.loads((tmp_path / "BENCH_cache.json").read_text())
        stages = payload["planner_stages"]
        assert {s["stage"] for s in stages} >= {"plan:collect", "plan:dedup"}
        assert not any(field in s for s in stages for field in WALL_FIELDS)

    def test_bench_cache_excluded_from_all(self):
        """The cache file is written only by `artifacts`, never by `all`."""
        from repro.harness.__main__ import _GENERATORS

        assert "cache" in ARTIFACTS
        assert "bench-cache" not in _GENERATORS


class TestBatchingFlags:
    def test_bad_batch_window_value(self, capsys):
        assert main(["serve", "--batch-window=soon"]) == 2
        err = capsys.readouterr().err
        assert "--batch-window requires a number" in err
        assert "usage:" in err

    def test_nonpositive_batch_window_rejected(self, capsys):
        for bad in ("0", "-2"):
            assert main(["serve", f"--batch-window={bad}"]) == 2
            assert "--batch-window must be > 0" in capsys.readouterr().err

    def test_bad_max_batch_value(self, capsys):
        assert main(["dash", "--max-batch=lots"]) == 2
        assert "--max-batch requires an integer" in capsys.readouterr().err

    def test_nonpositive_max_batch_rejected(self, capsys):
        assert main(["serve", "--max-batch=0"]) == 2
        assert "--max-batch must be >= 1" in capsys.readouterr().err

    def test_bad_batching_value(self, capsys):
        assert main(["dash", "--batching=maybe"]) == 2
        err = capsys.readouterr().err
        assert "--batching must be 'on' or 'off'" in err
        assert "usage:" in err

    def test_flags_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--batching=on|off" in out
        assert "--batch-window=SECONDS" in out
        assert "--max-batch=N" in out

    def test_all_serve_targets_accept_the_flags(self):
        from repro.harness.__main__ import _FLAG_TARGETS

        for target in ("serve", "dash"):
            for option in ("batch_window", "max_batch", "batching"):
                assert option in _FLAG_TARGETS[target]

    def test_serve_demo_reports_batching(self, capsys):
        assert main(["serve", "--horizon=40"]) == 0
        out = capsys.readouterr().out
        assert "batching: window 2s" in out

    def test_batching_off_restores_the_classic_demo(self, capsys):
        assert main(["serve", "--horizon=40", "--batching=off"]) == 0
        out = capsys.readouterr().out
        assert "Query server demo run" in out
        assert "batching: window" not in out


class TestTracingFlags:
    def test_bad_tracing_value(self, capsys):
        assert main(["serve", "--tracing=maybe"]) == 2
        err = capsys.readouterr().err
        assert "--tracing must be 'on' or 'off'" in err
        assert "usage:" in err

    def test_bad_trace_sample_value(self, capsys):
        assert main(["dash", "--trace-sample=few"]) == 2
        err = capsys.readouterr().err
        assert "--trace-sample requires an integer" in err
        assert "usage:" in err

    def test_negative_trace_sample_rejected(self, capsys):
        assert main(["serve", "--trace-sample=-1"]) == 2
        assert "--trace-sample must be >= 0" in capsys.readouterr().err

    def test_flags_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--tracing=on|off" in out
        assert "--trace-sample=K" in out

    def test_all_serve_targets_accept_the_flags(self):
        from repro.harness.__main__ import _FLAG_TARGETS

        for target in ("serve", "dash"):
            for option in ("tracing", "trace_sample"):
                assert option in _FLAG_TARGETS[target]

    def test_serve_reports_tracing_summary(self, capsys):
        assert main(["serve", "--horizon=40", "--tracing=on"]) == 0
        out = capsys.readouterr().out
        assert "Request tracing: kept" in out
        assert "worst unaccounted share 0.00%" in out

    def test_tracing_off_by_default(self, capsys):
        assert main(["serve", "--horizon=40"]) == 0
        assert "Request tracing:" not in capsys.readouterr().out

    def test_loadtest_tracing_writes_trace_artifacts(self, serve_artifact):
        directory, out = serve_artifact
        assert "Request tracing (tail sampler" in out
        assert "attributes 100% of offer-to-finish time" in out
        assert (directory / "BENCH_serve_traces.json").exists()
        assert (directory / "BENCH_serve_trace_spans.jsonl").exists()
        assert (directory / "BENCH_serve_trace_chrome.json").exists()

    def test_dash_tracing_renders_slowest_traces_panel(self, capsys):
        assert main(["dash", "--horizon=40", "--tracing=on"]) == 0
        out = capsys.readouterr().out
        assert "Slowest sampled traces" in out

    def test_dash_without_tracing_has_no_panel(self, capsys):
        assert main(["dash", "--horizon=40"]) == 0
        assert "Slowest sampled traces" not in capsys.readouterr().out


class TestExplainRequestCommand:
    def test_requires_request(self, capsys):
        assert main(["explain-request"]) == 2
        err = capsys.readouterr().err
        assert "explain-request requires --request=N" in err
        assert "usage:" in err

    def test_bad_request_value(self, capsys):
        assert main(["explain-request", "--request=first"]) == 2
        assert "--request requires an integer" in capsys.readouterr().err

    def test_negative_request_rejected(self, capsys):
        assert main(["explain-request", "--request=-3"]) == 2
        assert "--request must be >= 0" in capsys.readouterr().err

    def test_bad_multiplier_value(self, capsys):
        assert main([
            "explain-request", "--request=1", "--multiplier=heavy",
        ]) == 2
        assert "--multiplier requires a number" in capsys.readouterr().err

    def test_nonpositive_multiplier_rejected(self, capsys):
        assert main(["explain-request", "--request=1", "--multiplier=0"]) == 2
        assert "--multiplier must be > 0" in capsys.readouterr().err

    def test_unknown_request_id_reports_the_offered_range(self, capsys):
        assert main([
            "explain-request", "--request=99999", "--horizon=40",
        ]) == 2
        err = capsys.readouterr().err
        assert "no request 99999" in err
        assert "request ids" in err

    def test_must_be_invoked_alone(self, capsys):
        assert main(["explain-request", "table1"]) == 2
        assert "invoked alone" in capsys.readouterr().err

    def test_explains_a_request_end_to_end(self, capsys):
        assert main([
            "explain-request", "--request=3", "--horizon=40",
            "--batching=off",
        ]) == 0
        out = capsys.readouterr().out
        assert "== request 3 (trace t000003)" in out
        assert "span tree (virtual time):" in out
        assert "serve:request" in out
        assert "Stage attribution" in out
        assert "0.000000s unaccounted" in out
        assert "tail sampler:" in out

    def test_explains_a_batched_request_with_waves(self, capsys):
        assert main([
            "explain-request", "--request=3", "--horizon=40",
            "--multiplier=4",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve:batch.wait" in out or "serve:service" in out
        assert "Stage attribution" in out

    def test_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "explain-request --request=N" in out


class TestNonFiniteFloatFlags:
    """``nan`` sails through ``<``/``<=`` checks and ``inf`` never ends a
    horizon; every float flag rejects both with exit 2 + usage."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "target, flag",
        [
            ("serve", "--horizon"),
            ("dash", "--window"),
            ("serve", "--batch-window"),
            ("explain-request", "--multiplier"),
            ("regress", "--max-ex-drop"),
            ("regress", "--max-token-growth"),
            ("regress", "--max-makespan-growth"),
        ],
    )
    def test_rejected_before_anything_runs(self, capsys, target, flag, value):
        assert main([target, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"{flag} requires a finite number" in err
        assert "usage:" in err
