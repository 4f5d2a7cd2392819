"""Serving observability end-to-end (PR 8 acceptance criteria).

Telemetry must be provably *result-invisible*: the instrumented server
produces byte-identical outcomes to the NULL-telemetry one.  Under
sustained overload the fast burn-rate alert must fire and the flight
recorder must capture an incident holding the triggering window and the
shed/breaker evidence.  And the windowed per-tenant accounting must sum
back to the run report's totals — the dashboard never disagrees with
the ledger.
"""

import json

import pytest

from repro.harness.benchserve import (
    build_observability,
    default_config,
    default_tenants,
    measure_capacity,
    run_level,
    sweep_offered_load,
)
from repro.obs.slo import FAST
from repro.swan.benchmark import load_benchmark_subset

HORIZON = 60.0


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


@pytest.fixture(scope="module")
def capacity(serve_swan):
    return measure_capacity(
        serve_swan, default_config(), default_tenants(("superhero",)),
        seed=0, horizon=HORIZON,
    )


#: deep overload — one database carries little absolute traffic, so it
#: takes 8x measured capacity before admission starts refusing work
OVERLOAD = 8.0


@pytest.fixture(scope="module")
def overload_run(serve_swan, capacity):
    """One instrumented overload run shared by the assertions below."""
    telemetry, tracker = build_observability()
    report, record = run_level(
        serve_swan, default_config(), default_tenants(("superhero",)),
        OVERLOAD, capacity, seed=0, horizon=HORIZON,
        telemetry=telemetry, slo_tracker=tracker,
    )
    return report, record, telemetry, tracker


class TestResultInvisibility:
    def test_instrumented_outcomes_byte_identical_to_null(
        self, serve_swan, capacity
    ):
        tenants = default_tenants(("superhero",))
        _, bare = run_level(
            serve_swan, default_config(), tenants, OVERLOAD, capacity,
            seed=0, horizon=HORIZON,
        )
        telemetry, tracker = build_observability()
        _, instrumented = run_level(
            serve_swan, default_config(), tenants, OVERLOAD, capacity,
            seed=0, horizon=HORIZON,
            telemetry=telemetry, slo_tracker=tracker,
        )
        assert json.dumps(bare, sort_keys=True) == json.dumps(
            instrumented, sort_keys=True
        )


class TestOverloadAlerting:
    def test_fast_burn_fires_under_sustained_overload(self, overload_run):
        _, _, _, tracker = overload_run
        assert any(alert.severity == FAST for alert in tracker.alerts)

    def test_incident_captured_with_window_and_evidence(self, overload_run):
        _, _, telemetry, _ = overload_run
        incidents = telemetry.flight.incidents
        assert len(incidents) >= 1
        for incident in incidents:
            # every incident names its triggering window with stats
            assert incident["alert"]["window"] == incident["window"]["index"]
            assert incident["window"]["offered"] >= 0
        # the availability alert's incident carries the shed evidence
        availability = next(
            i for i in incidents if i["alert"]["slo"] == "availability"
        )
        kinds = {event["kind"] for event in availability["events"]}
        assert "shed" in kinds

    def test_shed_events_recorded_when_admission_refuses(self, overload_run):
        report, _, telemetry, _ = overload_run
        if report.shed == 0:
            pytest.skip("this trace shed nothing")
        shed_events = [
            e for e in telemetry.flight.events() if e["kind"] == "shed"
        ]
        # the bounded ring keeps the tail; every retained shed is real
        assert shed_events
        assert all("tenant" in e and "reason" in e for e in shed_events)


class TestWindowedAccounting:
    def test_window_sums_match_report_totals(self, overload_run):
        from repro.harness.benchserve import window_table

        report, record, telemetry, _ = overload_run
        rows = window_table(telemetry.timeseries)
        for label in ("offered", "served", "degraded", "rejected"):
            assert sum(row[label] for row in rows) == record[label]
        for tenant, stats in record["per_tenant"].items():
            for label in ("offered", "served", "degraded", "rejected"):
                windowed = sum(
                    row["per_tenant"][tenant][label] for row in rows
                )
                assert windowed == stats[label]

    def test_token_accounting_matches_usage(self, overload_run):
        report, record, telemetry, _ = overload_run
        total = sum(
            telemetry.timeseries.total("serve.tokens", tenant=t)
            for t in telemetry.timeseries.label_values(
                "serve.tokens", "tenant"
            )
        )
        assert total == record["input_tokens"] + record["output_tokens"]


class TestByteReproducibility:
    def test_slo_payload_and_incidents_byte_identical(self, tmp_path):
        def sweep(tag):
            sink = tmp_path / f"incidents_{tag}.jsonl"
            serve, slo, _, _ = sweep_offered_load(
                horizon=40.0, multipliers=(0.5, 4.0),
                databases=("superhero",), incident_sink=sink,
            )
            sink_bytes = (
                sink.read_bytes() if sink.exists() else b""
            )
            return (
                json.dumps(serve, sort_keys=True),
                json.dumps(slo, sort_keys=True),
                sink_bytes,
            )

        first = sweep("a")
        second = sweep("b")
        assert first == second
        slo = json.loads(first[1])
        # the alert timeline itself is part of the stable payload
        assert any(level["alerts"] for level in slo["levels"])
