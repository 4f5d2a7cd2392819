"""Traced benchmark runs (``BENCH_trace.json`` and friends).

Runs both pipelines over SWAN with telemetry fully enabled — a
:class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` per pipeline — on a
:class:`~repro.vtime.ServiceTimer` and one dispatch thread, so every
span lies on one sequential *virtual* timeline, exactly reproducible
(same seed → identical span tree, timestamps included), and the
per-stage breakdown attributes all of it to named stages.  The makespan
is :func:`~repro.vtime.parallel_makespan` of the paid calls.

Outputs (the ``trace`` artifact):

- ``BENCH_trace.json`` — per-pipeline EX, makespan, token totals, and
  the per-stage self-time/token table (:func:`measure_trace`);
- ``BENCH_trace_chrome.json`` — both pipelines as Chrome ``trace_event``
  processes, loadable in ``chrome://tracing`` / ui.perfetto.dev;
- ``BENCH_trace_spans.jsonl`` — the flat span log, one JSON per line;
- ``BENCH_trace.prom`` — the metric registries in Prometheus text form.

The last three are written by :func:`write_trace_exports`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.eval.report import format_table, percent
from repro.llm.parallel import SimulatedLatencyClient
from repro.llm.usage import Usage
from repro.obs import Telemetry
from repro.obs.export import chrome_trace, spans_to_records, stage_summary
from repro.swan.benchmark import Swan, load_benchmark
from repro.vtime import ServiceTimer, parallel_makespan


@dataclass
class PipelineTrace:
    """One fully-traced pipeline run, with its telemetry still attached."""

    pipeline: str
    ex: float
    makespan: float
    usage: Usage
    telemetry: Telemetry
    stages: list[dict]

    @property
    def attributed_share(self) -> float:
        """Fraction of recorded time attributed to *named* stages."""
        return sum(
            record["share"] for record in self.stages
            if record["stage"] != "(unaccounted)"
        )

    def as_record(self) -> dict:
        """The JSON payload entry for this pipeline."""
        return {
            "ex": round(self.ex, 4),
            "makespan_seconds": round(self.makespan, 4),
            "llm_calls": self.usage.calls,
            "input_tokens": self.usage.input_tokens,
            "output_tokens": self.usage.output_tokens,
            "spans": len(self.telemetry.tracer.spans),
            "attributed_share": round(self.attributed_share, 6),
            "stages": self.stages,
        }


def trace_pipelines(
    swan: Optional[Swan] = None,
    *,
    model_name: str = "gpt-3.5-turbo",
    shots: int = 0,
    databases: Optional[Sequence[str]] = None,
    workers: int = 1,
    scale: int = 1,
) -> dict[str, PipelineTrace]:
    """Run both pipelines traced, each on its own virtual clock.

    Each pipeline's fresh timer stamps its spans and sleeps each paid
    call's latency (:class:`SimulatedLatencyClient`); ``workers`` only
    sets the connections the makespan schedules over.  ``scale`` traces
    the scaled worlds (ignored when ``swan`` is given).
    """
    from repro.harness.runner import GoldResults, run_hqdl, run_udf

    swan = swan if swan is not None else load_benchmark(scale)
    gold = GoldResults(swan)
    traces: dict[str, PipelineTrace] = {}
    for pipeline, runner in (("udf", run_udf), ("hqdl", run_hqdl)):
        clock = ServiceTimer()
        telemetry = Telemetry.on(clock)
        run = runner(
            swan, model_name, shots,
            databases=databases, gold=gold,
            wrap_client=lambda model: SimulatedLatencyClient(model, clock),
            telemetry=telemetry,
        )
        traces[pipeline] = PipelineTrace(
            pipeline=pipeline,
            ex=run.overall_ex,
            makespan=parallel_makespan(run.call_sizes, workers),
            usage=run.usage,
            telemetry=telemetry,
            stages=stage_summary(telemetry.tracer.roots),
        )
    return traces


def measure_trace(
    swan: Optional[Swan] = None,
    *,
    model_name: str = "gpt-3.5-turbo",
    shots: int = 0,
    databases: Optional[Sequence[str]] = None,
    workers: int = 1,
    scale: int = 1,
) -> tuple[dict, dict[str, PipelineTrace]]:
    """The BENCH_trace payload plus the live traces behind it."""
    traces = trace_pipelines(
        swan, model_name=model_name, shots=shots,
        databases=databases, workers=workers, scale=scale,
    )
    payload = {
        "bench": "trace",
        "model": model_name,
        "shots": shots,
        "workers": workers,
        "scale": scale,
        "databases": list(databases) if databases is not None else "all",
        "pipelines": {
            name: trace.as_record() for name, trace in traces.items()
        },
    }
    return payload, traces


def merged_chrome_trace(traces: dict[str, PipelineTrace]) -> dict:
    """Both pipelines in one Chrome trace, one process (pid) each."""
    events: list[dict] = []
    for pid, (name, trace) in enumerate(traces.items(), start=1):
        sub = chrome_trace(
            trace.telemetry.tracer.spans, process_name=f"repro:{name}"
        )
        for event in sub["traceEvents"]:
            event["pid"] = pid
        events.extend(sub["traceEvents"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace_exports(
    traces: dict[str, PipelineTrace],
    *,
    chrome: Union[str, Path],
    spans: Union[str, Path],
    prometheus: Union[str, Path],
) -> None:
    """Write the Chrome trace, the span log and the Prometheus dump."""
    Path(chrome).write_text(
        json.dumps(merged_chrome_trace(traces), indent=2) + "\n"
    )

    lines = []
    for name, trace in traces.items():
        for record in spans_to_records(trace.telemetry.tracer.spans):
            record["pipeline"] = name
            lines.append(json.dumps(record, default=str))
    Path(spans).write_text("\n".join(lines) + ("\n" if lines else ""))

    sections = [
        f"# pipeline: {name}\n{trace.telemetry.metrics.render_prometheus()}"
        for name, trace in traces.items()
    ]
    Path(prometheus).write_text("\n".join(sections))


def format_stage_summary(records: Sequence[dict], *, title: str = "") -> str:
    """Render :func:`~repro.obs.export.stage_summary` records as an aligned
    console table."""
    rows = [
        [
            record["stage"],
            record["spans"],
            f"{record['self_s']:.3f} s",
            percent(record["share"]),
            record["input_tokens"],
            record["output_tokens"],
        ]
        for record in records
    ]
    return format_table(
        ["Stage", "Spans", "Self time", "Share", "Input tok", "Output tok"],
        rows,
        title=title,
    )


def format_trace_report(payload: dict) -> str:
    """Console rendering of a trace payload: one stage table per pipeline."""
    blocks = []
    for name, entry in payload["pipelines"].items():
        title = (
            f"{name.upper()} per-stage breakdown — EX "
            f"{entry['ex'] * 100:.1f}%, makespan "
            f"{entry['makespan_seconds']:.1f} s (virtual), "
            f"{entry['llm_calls']} LLM calls."
        )
        blocks.append(format_stage_summary(entry["stages"], title=title))
    return "\n\n".join(blocks)
