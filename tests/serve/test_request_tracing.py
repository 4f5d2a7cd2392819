"""Request-scoped serving traces end-to-end (tentpole acceptance).

The trace log must be provably passive: a traced run produces
byte-identical outcomes, reports, and SLO artifacts to an untraced
one.  Every materialized span tree must tile its request's
offer-to-finish interval exactly (zero unaccounted), shared batch
flushes must link one wave span from every member request, and the
whole pipeline — records, sampler verdicts, materialized spans — must
be byte-reproducible run over run.
"""

import json
from dataclasses import replace

import pytest

from repro.harness.benchserve import (
    build_observability,
    default_config,
    default_tenants,
    measure_capacity,
    run_level,
    sweep_offered_load,
    trace_level_record,
    trace_spans,
)
from repro.obs.export import spans_to_records, stage_summary
from repro.obs.sampler import TailSampler
from repro.serve.batcher import BatchingConfig
from repro.serve.request import QueryRequest
from repro.serve.server import QueryServer, ServerConfig
from repro.serve.trace import (
    ServeTraceLog,
    materialize_kept,
    materialize_request,
)
from repro.swan.benchmark import load_benchmark_subset

HORIZON = 60.0

#: deep overload — enough pressure for sheds, reaps, and degradations
OVERLOAD = 8.0


@pytest.fixture(scope="module")
def serve_swan():
    return load_benchmark_subset(1, ["superhero"])


@pytest.fixture(scope="module")
def capacity(serve_swan):
    return measure_capacity(
        serve_swan, default_config(), default_tenants(("superhero",)),
        seed=0, horizon=HORIZON,
    )


def _run(serve_swan, capacity, *, trace=None, batching=None):
    return run_level(
        serve_swan, replace(default_config(), batching=batching),
        default_tenants(("superhero",)), OVERLOAD, capacity, seed=0,
        horizon=HORIZON, trace=trace,
    )


@pytest.fixture(scope="module")
def traced_run(serve_swan, capacity):
    log = ServeTraceLog()
    report, record = _run(serve_swan, capacity, trace=log)
    return report, record, log


@pytest.fixture(scope="module")
def traced_batched_run(serve_swan, capacity):
    log = ServeTraceLog()
    report, record = _run(
        serve_swan, capacity, trace=log, batching=BatchingConfig()
    )
    return report, record, log


@pytest.fixture(scope="module")
def traced_burst_run(serve_swan):
    """A same-instant burst: six requests over three questions arrive
    together, are dispatched at one instant and share its wave."""
    requests = [
        QueryRequest(
            request_id=index, tenant=f"t{index % 2}", database="superhero",
            sql=serve_swan.question(qid).blend_sql, arrival=0.0, qid=qid,
            deadline_seconds=1000.0,
        )
        for index, qid in enumerate(
            ("superhero_q01", "superhero_q02", "superhero_q05") * 2
        )
    ]
    log = ServeTraceLog()
    config = ServerConfig(
        workers=4, max_concurrent=len(requests), batching=BatchingConfig()
    )
    with QueryServer(serve_swan, config, trace=log) as server:
        report = server.run(requests)
    return report, log


class TestTraceInvisibility:
    def test_traced_outcomes_byte_identical_to_untraced(
        self, serve_swan, capacity, traced_run
    ):
        _, untraced = _run(serve_swan, capacity)
        traced = traced_run[1]
        assert json.dumps(untraced, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )

    def test_traced_batched_outcomes_byte_identical(
        self, serve_swan, capacity, traced_batched_run
    ):
        _, untraced = _run(serve_swan, capacity, batching=BatchingConfig())
        assert json.dumps(untraced, sort_keys=True) == json.dumps(
            traced_batched_run[1], sort_keys=True
        )

    def test_slo_artifacts_unchanged_by_tracing(self, tmp_path):
        common = dict(
            horizon=40.0, multipliers=(0.5, 4.0), databases=("superhero",),
        )
        sink_off = tmp_path / "incidents_off.jsonl"
        serve_off, slo_off, _, _ = sweep_offered_load(
            incident_sink=sink_off, **common
        )
        sink_on = tmp_path / "incidents_on.jsonl"
        serve_on, slo_on, traces, forest = sweep_offered_load(
            incident_sink=sink_on, tracing=TailSampler(), **common
        )
        assert json.dumps(serve_off, sort_keys=True) == json.dumps(
            serve_on, sort_keys=True
        )
        assert json.dumps(slo_off, sort_keys=True) == json.dumps(
            slo_on, sort_keys=True
        )
        assert sink_off.read_bytes() == sink_on.read_bytes()
        assert traces["levels"]


class TestExactAttribution:
    def test_every_trace_tiles_with_zero_unaccounted(self, traced_run):
        report, _, log = traced_run
        assert len(log.records) == report.offered
        waves = {wave.wave_id: wave for wave in log.waves}
        statuses = set()
        for record in log.records:
            root = materialize_request(record, waves)
            statuses.add((record.status, record.reason))
            rows = stage_summary([root])
            assert not any(
                row["stage"] == "(unaccounted)" for row in rows
            ), f"unaccounted time in {record.trace_id} {record.status}"
            for span in root.walk():
                assert span.start >= root.start - 1e-9
                assert span.end <= root.end + 1e-9
        # deep overload exercises more than one terminal outcome
        assert len(statuses) > 1

    def test_batched_traces_also_tile_exactly(self, traced_batched_run):
        _, _, log = traced_batched_run
        waves = {wave.wave_id: wave for wave in log.waves}
        for record in log.records:
            rows = stage_summary([materialize_request(record, waves)])
            assert not any(
                row["stage"] == "(unaccounted)" for row in rows
            )

    def test_level_record_reports_zero_unaccounted_share(self, traced_run):
        _, _, log = traced_run
        level = trace_level_record(OVERLOAD, log, TailSampler())
        assert level["max_unaccounted_share"] == 0.0
        assert level["sampler"]["kept"] == len(level["traces"])


class TestSharedBatchLinks:
    def test_one_wave_span_linked_from_every_member(self, traced_burst_run):
        report, log = traced_burst_run
        assert report.batching["coalesced_items"] > 0
        shared = [wave for wave in log.waves if len(wave.members) > 1]
        assert shared, "a same-instant burst never shared a flush"
        for wave in shared:
            for trace_id in wave.members:
                record = log.get(trace_id)
                assert record is not None
                assert wave.wave_id in record.waves
                root = materialize_request(
                    record, {wave.wave_id: wave}
                )
                links = [
                    span for span in root.walk()
                    if span.name == "serve:batch.dispatch"
                    and span.attributes.get("link") == wave.wave_id
                ]
                assert len(links) == 1

    def test_kept_forest_exports_linked_wave_spans(self, traced_burst_run):
        # the burst is UDF-only: on a warmed database the expansion face
        # serves every map key, and few requests ride a wave
        _, log = traced_burst_run
        kept = TailSampler().decide(log.records)
        forest = materialize_kept(log, kept)
        records = spans_to_records(trace_spans(forest))
        wave_ids = {
            r["span_id"] for r in records if r["name"] == "serve:batch.wave"
        }
        links = [
            r for r in records if r["name"] == "serve:batch.dispatch"
        ]
        assert wave_ids and links
        for link in links:
            assert link["attributes"]["link"] in wave_ids


class TestByteReproducibility:
    def test_trace_payload_and_spans_reproduce(self):
        def sweep():
            _, _, traces, forest = sweep_offered_load(
                horizon=40.0, multipliers=(0.5, 4.0),
                databases=("superhero",), tracing=TailSampler(),
            )
            return (
                json.dumps(traces, sort_keys=True),
                json.dumps(
                    spans_to_records(trace_spans(forest)), sort_keys=True
                ),
            )

        assert sweep() == sweep()

    def test_trace_ids_are_pure_functions_of_request_ids(self, traced_run):
        _, _, log = traced_run
        for record in log.records:
            assert record.trace_id == f"t{record.request_id:06d}"
