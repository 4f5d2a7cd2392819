"""Tests for the serving load test (`repro.harness.benchserve`)."""

import json

import pytest

from repro.harness.artifacts import write_json
from repro.harness.benchserve import (
    default_config,
    default_tenants,
    format_serve_demo,
    format_serve_report,
    measure_capacity,
    offered_rps,
    run_level,
    sweep_offered_load,
)
from repro.swan.benchmark import load_benchmark_subset


class TestTenantMix:
    def test_default_mix_has_two_priority_classes(self):
        tenants = default_tenants(("superhero",))
        priorities = {t.priority for t in tenants}
        assert len(priorities) >= 2
        assert 0 in priorities, "an interactive (priority 0) class exists"

    def test_offered_rps_counts_bursts(self):
        tenants = default_tenants()
        base = sum(t.rate for t in tenants)
        assert offered_rps(tenants) > base


class TestCapacity:
    def test_probe_measures_a_positive_capacity(self):
        swan = load_benchmark_subset(1, ["superhero"])
        capacity = measure_capacity(
            swan, default_config(), default_tenants(("superhero",)),
            horizon=60.0,
        )
        assert capacity > 0


def _serve_payload(**kwargs):
    """The BENCH_serve payload of a short sweep without observability."""
    return sweep_offered_load(
        horizon=40.0, multipliers=(0.5, 2.0), databases=("superhero",),
        window_seconds=None, **kwargs,
    ).serve


class TestLoadtest:
    @pytest.fixture(scope="class")
    def payload(self):
        return _serve_payload()

    def test_payload_shape(self, payload):
        assert payload["capacity_rps"] > 0
        assert [lv["multiplier"] for lv in payload["levels"]] == [0.5, 2.0]
        for level in payload["levels"]:
            assert level["accounting_ok"] is True
            assert (
                level["served"] + level["degraded"] + level["rejected"]
                == level["offered"]
            )

    def test_deadlines_bound_answered_latency(self, payload):
        limit = max(t.deadline_seconds for t in default_tenants())
        for level in payload["levels"]:
            assert level["p99"] <= limit + 1e-6
            assert level["max_latency"] <= limit + 1e-6

    def test_deterministic_across_runs(self, payload):
        assert _serve_payload() == payload

    def test_write_and_render(self, payload, tmp_path):
        path = write_json(tmp_path / "BENCH_serve.json", payload)
        assert json.loads(path.read_text()) == payload
        text = format_serve_report(payload)
        assert "Serving load test" in text
        assert "2.00x" in text

    def test_demo_renders(self):
        swan = load_benchmark_subset(1, ["superhero"])
        tenants = default_tenants(("superhero",))
        config = default_config()
        capacity = measure_capacity(swan, config, tenants, horizon=40.0)
        report, record = run_level(
            swan, config, tenants, 2.0, capacity, horizon=40.0
        )
        text = format_serve_demo(report)
        assert "Query server demo run" in text
        assert "interactive" in text
        assert record["offered"] == report.offered


class TestBatchingComparison:
    @pytest.fixture(scope="class")
    def payloads(self):
        from repro.serve.batcher import BatchingConfig

        return _serve_payload(batching=BatchingConfig()), _serve_payload()

    def test_levels_carry_the_batching_keys(self, payloads):
        on, _ = payloads
        assert on["batch_window"] == 2.0
        assert on["max_batch"] is None
        for level in on["levels"]:
            assert level["tokens_per_answer"] >= 0
            assert 0.0 <= level["batch_occupancy"] <= 1.0
            assert level["coalesced_calls"] >= 0
            arm = level["batching"]
            assert arm["accounting_ok"] is True
            assert arm["paid_calls"] <= arm["formed_calls"]
            assert arm["llm_calls"] <= level["llm_calls"]

    def test_off_payload_is_the_on_payload_minus_batching(self, payloads):
        """The unbatched arm is untouched by running the batched one."""
        on, off = payloads
        stripped = {
            k: v for k, v in on.items()
            if k not in ("batch_window", "max_batch")
        }
        stripped["levels"] = [
            {
                k: v for k, v in level.items()
                if k not in (
                    "tokens_per_answer", "batch_occupancy",
                    "coalesced_calls", "batching",
                )
            }
            for level in on["levels"]
        ]
        assert stripped == off

    def test_batched_arm_stays_inside_deadlines(self, payloads):
        on, _ = payloads
        limit = max(t.deadline_seconds for t in default_tenants())
        for level in on["levels"]:
            assert level["batching"]["p99"] <= limit + 1e-6

    def test_report_renders_the_comparison_table(self, payloads):
        on, off = payloads
        text = format_serve_report(on)
        assert "Cross-request batching (window=2s)" in text
        assert "saved%" in text
        assert "Cross-request batching" not in format_serve_report(off)

    def test_slo_payload_unchanged_by_batching(self):
        from repro.serve.batcher import BatchingConfig

        common = dict(
            horizon=30.0, multipliers=(2.0,), databases=("superhero",)
        )
        slo_on = sweep_offered_load(batching=BatchingConfig(), **common).slo
        slo_off = sweep_offered_load(**common).slo
        assert slo_on == slo_off
