"""Acceptance tests for end-to-end tracing: the ISSUE's contract.

1. **Telemetry is invisible.**  A run with full telemetry produces
   byte-identical outcomes, usage, and cache statistics to a run with
   the null handle.
2. **Traces are reproducible.**  Under a SimulatedClock, two traced
   runs of the same configuration yield identical span trees —
   timestamps, ids, and attributes included.
3. **Attribution is exhaustive.**  The per-stage summary attributes
   >= 95% of recorded virtual time to named stages.
4. **The trace artifact writes its files**, and the Chrome export is a
   valid trace_event payload.
"""

import json

import pytest

from repro.harness.artifacts import ARTIFACTS
from repro.harness.runner import GoldResults, run_hqdl, run_udf
from repro.harness.tracing import (
    format_trace_report,
    measure_trace,
    trace_pipelines,
)
from repro.llm.parallel import SimulatedClock, SimulatedLatencyClient
from repro.obs import Telemetry

DBS = ["superhero"]
MODEL = "gpt-3.5-turbo"


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


def _outcome_key(outcome):
    return (outcome.qid, outcome.correct, outcome.error)


class TestTelemetryIsInvisible:
    def test_udf_results_identical(self, swan, gold):
        plain = run_udf(swan, MODEL, 0, databases=DBS, gold=gold)
        traced = run_udf(
            swan, MODEL, 0, databases=DBS, gold=gold,
            telemetry=Telemetry.on(SimulatedClock(1)),
        )
        assert [_outcome_key(o) for o in plain.outcomes] == [
            _outcome_key(o) for o in traced.outcomes
        ]
        assert plain.usage == traced.usage
        assert plain.cache_hits == traced.cache_hits
        assert plain.cache_misses == traced.cache_misses

    def test_hqdl_results_identical(self, swan, gold):
        plain = run_hqdl(swan, MODEL, 0, databases=DBS, gold=gold)
        traced = run_hqdl(
            swan, MODEL, 0, databases=DBS, gold=gold,
            telemetry=Telemetry.on(SimulatedClock(1)),
        )
        assert [_outcome_key(o) for o in plain.outcomes] == [
            _outcome_key(o) for o in traced.outcomes
        ]
        assert plain.usage == traced.usage
        assert plain.f1_by_db == traced.f1_by_db


class TestTracesAreReproducible:
    def trace_once(self, swan, gold):
        clock = SimulatedClock(1)
        telemetry = Telemetry.on(clock)
        run_udf(
            swan, MODEL, 0, databases=DBS, gold=gold,
            wrap_client=lambda m: SimulatedLatencyClient(m, clock),
            telemetry=telemetry,
        )
        return telemetry

    def test_identical_span_trees(self, swan, gold):
        a = self.trace_once(swan, gold)
        b = self.trace_once(swan, gold)
        assert len(a.tracer.spans) == len(b.tracer.spans)
        assert [r.tree() for r in a.tracer.roots] == [
            r.tree() for r in b.tracer.roots
        ]
        assert [s.span_id for s in a.tracer.spans] == [
            s.span_id for s in b.tracer.spans
        ]

    def test_identical_metrics(self, swan, gold):
        a = self.trace_once(swan, gold)
        b = self.trace_once(swan, gold)
        assert a.metrics.snapshot() == b.metrics.snapshot()

    def test_span_hierarchy_runs_deep(self, swan, gold):
        tracer = self.trace_once(swan, gold).tracer
        (root,) = tracer.roots
        assert root.name == "run"
        names = {s.name for s in tracer.spans}
        # the full pipeline is visible: run -> database -> question ->
        # sql stages -> dispatch -> cache-mediated LLM calls
        assert {
            "run", "database", "question", "sql:parse", "sql:rewrite",
            "sql:execute", "dispatch", "llm:call", "llm:cache",
        } <= names


class TestAttribution:
    def test_at_least_95_percent_attributed(self, swan):
        traces = trace_pipelines(swan, databases=DBS)
        for trace in traces.values():
            assert trace.attributed_share >= 0.95
            assert trace.makespan > 0

    def test_stage_records_carry_tokens(self, swan):
        traces = trace_pipelines(swan, databases=DBS)
        for trace in traces.values():
            total_in = sum(r["input_tokens"] for r in trace.stages)
            assert total_in == trace.usage.input_tokens

    def test_trace_ex_matches_untraced_run(self, swan, gold):
        traces = trace_pipelines(swan, databases=DBS)
        plain = run_udf(swan, MODEL, 0, databases=DBS, gold=gold)
        assert traces["udf"].ex == plain.overall_ex


class TestTraceArtifacts:
    def test_write_trace_json(self, swan, tmp_path):
        ARTIFACTS["trace"].write(tmp_path, swan=swan, databases=DBS)
        trace_path, prom_path, chrome_path, spans_path = (
            tmp_path / name
            for name in ARTIFACTS["trace"].files + ARTIFACTS["trace"].digests
        )

        loaded = json.loads(trace_path.read_text())
        assert loaded["databases"] == DBS
        assert set(loaded["pipelines"]) == {"udf", "hqdl"}
        for entry in loaded["pipelines"].values():
            assert entry["attributed_share"] >= 0.95
            assert entry["stages"]

        chrome = json.loads(chrome_path.read_text())
        events = chrome["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X"}
        assert {e["pid"] for e in events} == {1, 2}
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and "ts" in e for e in complete)

        for line in spans_path.read_text().splitlines():
            record = json.loads(line)
            assert record["pipeline"] in {"udf", "hqdl"}

        assert "# pipeline: udf" in prom_path.read_text()
        assert "llm_cache_hits" in prom_path.read_text()

    def test_console_report(self, swan):
        payload, _ = measure_trace(swan, databases=DBS)
        text = format_trace_report(payload)
        assert "UDF per-stage breakdown" in text
        assert "HQDL per-stage breakdown" in text
        assert "Stage" in text and "Share" in text
