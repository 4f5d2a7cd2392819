"""Tests for the serving load test (`repro.harness.benchserve`)."""

import json

import pytest

from repro.harness.artifacts import write_json
from repro.harness.benchserve import (
    default_config,
    default_tenants,
    format_serve_report,
    measure_capacity,
    offered_rps,
    sweep_offered_load,
)
from repro.harness.regress import serve_tokens_per_answer
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


class TestTokensPerAnswer:
    """Every level carries its own tokens per answer, which the regress
    gate's ``serve_tokens_per_answer`` check reads at the 1x level."""

    @pytest.fixture(scope="class")
    def payload(self):
        return sweep_offered_load(
            horizon=40.0, multipliers=(1.0, 2.0), databases=("superhero",),
            window_seconds=None,
        ).serve

    def test_every_level_carries_it(self, payload):
        for level in payload["levels"]:
            answered = level["served"] + level["degraded"]
            tokens = level["input_tokens"] + level["output_tokens"]
            assert answered > 0
            assert level["tokens_per_answer"] == round(tokens / answered, 6)

    def test_regress_reads_the_1x_level(self, payload, tmp_path):
        path = write_json(tmp_path / "BENCH_serve.json", payload)
        (one_x,) = [lv for lv in payload["levels"] if lv["multiplier"] == 1.0]
        assert serve_tokens_per_answer(path) == one_x["tokens_per_answer"]
