"""HQDL warm start: every expansion is built before the first arrival.

``QueryServer.run`` materializes each database its stream routes to HQDL
(``DatabaseStates.warm``) and reports the build as ``report.startup``.
No HQDL request then pays an LLM call, the startup record and the
outcomes together account for every call the server paid, and a stream
with no HQDL request builds no HQDL state at all.
"""

from dataclasses import replace

import pytest

from repro.harness.benchserve import default_config, default_tenants, offered_rps
from repro.serve.batcher import BatchingConfig
from repro.serve.report import StartupRecord
from repro.serve.server import QueryServer
from repro.serve.state import DatabaseState, hqdl_databases
from repro.serve.traffic import generate_traffic
from repro.swan.benchmark import load_benchmark_subset

DATABASES = ("superhero", "formula_1")

ARMS = [
    (batching, fault_rate)
    for batching in (None, BatchingConfig())
    for fault_rate in (0.0, 0.2)
]


def _arm_id(arm) -> str:
    batching, fault_rate = arm
    return f"batching-{'on' if batching else 'off'}-fault{fault_rate}"


@pytest.fixture(scope="module")
def warm_swan():
    return load_benchmark_subset(1, list(DATABASES))


def _traffic(swan, *, hqdl: bool):
    tenants = default_tenants(DATABASES)
    if not hqdl:
        tenants = [replace(spec, hqdl_share=0.0) for spec in tenants]
    scaled = [spec.scaled(1.5 / offered_rps(tenants)) for spec in tenants]
    policies = {spec.name: spec.policy() for spec in scaled}
    return generate_traffic(swan, scaled, horizon=60.0, seed=7), policies


def _serve(swan, arm, *, hqdl: bool = True):
    batching, fault_rate = arm
    requests, policies = _traffic(swan, hqdl=hqdl)
    config = replace(
        default_config(), batching=batching, fault_rate=fault_rate, fault_seed=3
    )
    with QueryServer(swan, config, policies=policies) as server:
        return requests, server.run(requests)


@pytest.fixture(scope="module", params=ARMS, ids=_arm_id)
def served(request, warm_swan):
    return _serve(warm_swan, request.param)


class TestWarmStart:
    def test_every_hqdl_outcome_pays_no_call(self, served):
        _, report = served
        hqdl = [o for o in report.outcomes if o.request.pipeline == "hqdl"]
        assert any(o.answered for o in hqdl)
        assert [o.llm_calls for o in hqdl] == [0] * len(hqdl)
        assert not any(o.input_tokens or o.output_tokens for o in hqdl)

    def test_startup_builds_every_hqdl_database_of_the_stream(self, served):
        requests, report = served
        startup = report.startup
        assert list(startup.databases) == hqdl_databases(requests)
        assert list(startup.databases) == sorted(DATABASES)
        assert startup.calls > 0
        assert startup.seconds > 0
        assert report.as_record()["startup"] == startup.as_record()

    def test_startup_and_outcomes_account_for_every_call(self, served):
        _, report = served
        outcome_calls = sum(o.llm_calls for o in report.outcomes)
        assert outcome_calls + report.startup.calls == report.usage.calls
        outcome_tokens = sum(o.input_tokens for o in report.outcomes)
        assert outcome_tokens + report.startup.input_tokens == (
            report.usage.input_tokens
        )


@pytest.mark.parametrize("arm", [ARMS[0], ARMS[2]], ids=_arm_id)
def test_udf_only_stream_warms_nothing(warm_swan, monkeypatch, arm):
    def no_hqdl_pipeline(self):
        raise AssertionError(f"built an HQDL pipeline for {self.world.name!r}")

    monkeypatch.setattr(DatabaseState, "hqdl", property(no_hqdl_pipeline))
    requests, report = _serve(warm_swan, arm, hqdl=False)
    assert hqdl_databases(requests) == []
    assert report.answered > 0
    assert report.startup == StartupRecord()
    assert report.as_record()["startup"]["llm_calls"] == 0

