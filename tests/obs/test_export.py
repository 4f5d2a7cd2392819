"""Tests for span/metric exporters."""

import json

from repro.harness.tracing import format_stage_summary
from repro.obs.export import (
    chrome_trace,
    spans_to_records,
    stage_summary,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.trace import Span, Tracer


class TickClock:
    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def now(self):
        value = self.t
        self.t += self.step
        return value


def small_trace():
    tracer = Tracer(TickClock())
    with tracer.span("run", pipeline="udf"):
        with tracer.span("llm:call", input_tokens=10, output_tokens=5):
            pass
    return tracer


class TestSpanRecords:
    def test_records_carry_links_and_attrs(self):
        tracer = small_trace()
        records = spans_to_records(tracer.spans)
        assert records[0]["name"] == "run"
        assert records[0]["parent_id"] is None
        assert records[1]["parent_id"] == records[0]["span_id"]
        assert records[1]["attributes"]["input_tokens"] == 10

    def test_jsonl_round_trip(self, tmp_path):
        tracer = small_trace()
        path = write_spans_jsonl(tracer.spans, tmp_path / "spans.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "run"

    def test_jsonl_empty(self, tmp_path):
        path = write_spans_jsonl([], tmp_path / "spans.jsonl")
        assert path.read_text() == ""


class TestChromeTrace:
    def test_events_shape(self):
        tracer = small_trace()
        payload = chrome_trace(tracer.spans, process_name="test")
        meta, run, call = payload["traceEvents"]
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "test"
        assert run["ph"] == "X"
        assert run["name"] == "run"
        assert run["ts"] == 0.0
        # clock ticks once per now(): run opens at 0, call at 1, call
        # closes at 2, run at 3 — so durations are 3 s and 1 s in µs
        assert run["dur"] == 3e6
        assert call["dur"] == 1e6
        assert call["tid"] == run["tid"]

    def test_args_are_jsonable(self):
        tracer = Tracer(TickClock())
        with tracer.span("s", obj=object()):
            pass
        payload = chrome_trace(tracer.spans)
        args = payload["traceEvents"][1]["args"]
        assert isinstance(args["obj"], str)
        json.dumps(payload)

    def test_write_is_valid_json(self, tmp_path):
        tracer = small_trace()
        path = write_chrome_trace(tracer.spans, tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 3


class TestStageSummary:
    def make_forest(self):
        root = Span("run", "s1", None, 0.0)
        root.end = 10.0
        call = Span("llm:call", "s2", "s1", 1.0,
                    attributes={"input_tokens": 100, "output_tokens": 20})
        call.end = 9.0
        root.children.append(call)
        return [root]

    def test_self_time_sums_to_total(self):
        records = stage_summary(self.make_forest())
        by_stage = {r["stage"]: r for r in records}
        assert by_stage["llm:call"]["self_s"] == 8.0
        assert by_stage["run"]["self_s"] == 2.0
        assert sum(r["self_s"] for r in records) == 10.0
        assert sum(r["share"] for r in records) == 1.0

    def test_token_attribution(self):
        records = stage_summary(self.make_forest())
        call = next(r for r in records if r["stage"] == "llm:call")
        assert call["input_tokens"] == 100
        assert call["output_tokens"] == 20

    def test_sorted_by_self_time(self):
        records = stage_summary(self.make_forest())
        assert [r["stage"] for r in records] == ["llm:call", "run"]

    def test_overlapping_children_clamp_parent_self_time(self):
        root = Span("run", "s1", None, 0.0)
        root.end = 4.0
        # two parallel children overlap: 3 s + 3 s inside a 4 s parent
        for i in (2, 3):
            child = Span("llm:call", f"s{i}", "s1", 0.5)
            child.end = 3.5
            root.children.append(child)
        records = stage_summary([root])
        by_stage = {r["stage"]: r for r in records}
        # the parent's self time clamps at zero instead of going negative,
        # and over-covered time never produces an (unaccounted) row
        assert by_stage["run"]["self_s"] == 0.0
        assert by_stage["llm:call"]["self_s"] == 6.0
        assert "(unaccounted)" not in by_stage

    def test_empty_forest(self):
        assert stage_summary([]) == []

    def test_format_renders_table(self):
        text = format_stage_summary(
            stage_summary(self.make_forest()), title="Stages"
        )
        lines = text.splitlines()
        assert lines[0] == "Stages"
        assert "llm:call" in text
        assert "80.0%" in text
