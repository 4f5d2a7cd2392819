"""``python -m repro.harness explain``: one question, fully accounted.

Re-runs one database with tracing and provenance enabled, then prints
everything the run learned about one question:

- the question's **span tree** (virtual-time durations, per stage);
- the **provenance summary** — how many cells fed the answer, how they
  were served (fresh / memory / disk / mapping-store), how many came
  back NULL and why — plus sample cell → call chains;
- the **miss classification** from :mod:`repro.eval.attribution` when
  the question missed, or a plain CORRECT verdict when it didn't.

The rerun is deterministic (mock oracle, virtual clock), so explain
output is stable run over run — suitable for diffing.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.eval.attribution import cells_for_question, classify_miss
from repro.llm.parallel import SimulatedLatencyClient
from repro.obs import ProvenanceRecorder, Telemetry
from repro.swan.base import Question
from repro.swan.benchmark import Swan, load_benchmark
from repro.vtime import ServiceTimer

#: how many cell → call chains explain prints before eliding
_MAX_CHAINS = 8

#: how many same-named sibling spans render before the rest collapse
_MAX_SIBLINGS = 6


def _resolve_question(swan: Swan, database: str, question_ref: str) -> Question:
    """A question by qid, or by 1-based index within its database."""
    questions = swan.questions_for(database)
    if question_ref.isdigit():
        index = int(question_ref)
        if not 1 <= index <= len(questions):
            raise ReproError(
                f"question index must be 1..{len(questions)}, got {index}"
            )
        return questions[index - 1]
    for question in questions:
        if question.qid == question_ref:
            return question
    raise ReproError(
        f"no question {question_ref!r} in database {database!r}; "
        f"use a qid like {questions[0].qid!r} or an index 1..{len(questions)}"
    )


def _render_span(span, indent: int = 0) -> list[str]:
    attrs = ", ".join(
        f"{key}={value}" for key, value in sorted(span.attributes.items())
    )
    suffix = f" [{attrs}]" if attrs else ""
    lines = [
        f"{'  ' * indent}{span.name} ({span.duration:.3f}s){suffix}"
    ]
    # collapse long runs of same-named siblings (26 llm:call spans say
    # less than 6 spans plus an aggregate line)
    shown: dict[str, int] = {}
    elided: dict[str, list] = {}
    for child in span.children:
        count = shown.get(child.name, 0)
        if count < _MAX_SIBLINGS:
            shown[child.name] = count + 1
            lines.extend(_render_span(child, indent + 1))
        else:
            elided.setdefault(child.name, []).append(child)
    for name, children in elided.items():
        total = sum(child.duration for child in children)
        lines.append(
            f"{'  ' * (indent + 1)}... {len(children)} more {name} "
            f"span(s) ({total:.3f}s total)"
        )
    return lines


def _question_span(telemetry: Telemetry, qid: str):
    for span in telemetry.tracer.spans:
        if span.name == "question" and span.attributes.get("qid") == qid:
            return span
    return None


def _tier_counts(cells) -> dict[str, int]:
    counts: dict[str, int] = {}
    for cell in cells:
        counts[cell.tier] = counts.get(cell.tier, 0) + 1
    return counts


def _chain_line(provenance, cell) -> str:
    key = "/".join(str(part) for part in cell.key)
    target = f"{cell.table}[{key}].{cell.column}"
    flags = []
    if cell.degraded:
        flags.append("degraded")
    elif cell.null:
        flags.append("null")
    call = provenance.call(cell.call_id)
    if call is None:
        source = f"<- ({cell.tier}, no call record)"
    else:
        parts = [cell.tier, f"{call.dispatches} dispatch(es)"]
        if call.paid_calls:
            parts.append(f"{call.input_tokens}->{call.output_tokens} tokens")
        if call.retries:
            parts.append(f"{call.retries} retries: {','.join(call.faults)}")
        if call.failed:
            parts.append(f"FAILED {call.error}")
        if call.planned:
            parts.append("planned")
        source = f"<- {call.call_id} ({', '.join(parts)})"
    flag_text = f" [{', '.join(flags)}]" if flags else ""
    return f"{target}{flag_text} {source}"


def explain_question(
    database: str,
    question_ref: str,
    *,
    pipeline: str = "udf",
    model_name: str = "gpt-3.5-turbo",
    shots: int = 0,
    swan: Optional[Swan] = None,
) -> str:
    """Rerun one database (on one thread) and explain one question."""
    from repro.harness.runner import GoldResults, run_hqdl, run_udf

    if pipeline not in ("udf", "hqdl"):
        raise ReproError(f"pipeline must be 'udf' or 'hqdl', got {pipeline!r}")
    swan = swan if swan is not None else load_benchmark()
    if database not in swan.database_names():
        raise ReproError(
            f"unknown database {database!r}; valid names are: "
            f"{', '.join(swan.database_names())}"
        )
    question = _resolve_question(swan, database, question_ref)
    clock = ServiceTimer()
    telemetry = Telemetry.on(clock)
    provenance = ProvenanceRecorder()
    gold = GoldResults(swan)
    common = dict(
        databases=[database], gold=gold,
        wrap_client=lambda model: SimulatedLatencyClient(model, clock),
        telemetry=telemetry, provenance=provenance,
    )
    if pipeline == "udf":
        run = run_udf(swan, model_name, shots, **common)
    else:
        run = run_hqdl(swan, model_name, shots, **common)

    outcome = next(
        (o for o in run.outcomes if o.qid == question.qid), None
    )
    if outcome is None:  # pragma: no cover - resolve_question precludes it
        raise ReproError(f"question {question.qid!r} produced no outcome")

    lines: list[str] = []
    lines.append(
        f"== {question.qid} ({pipeline}, {model_name}, {shots}-shot) =="
    )
    if outcome.correct:
        lines.append("verdict: CORRECT")
    else:
        cells = cells_for_question(provenance, question, pipeline)
        attribution = classify_miss(outcome, cells, pipeline=pipeline)
        lines.append(f"verdict: MISS ({attribution.miss_class})")
        if attribution.detail:
            lines.append(f"  detail: {attribution.detail}")
    lines.append(
        f"rows: expected {outcome.expected_rows}, got {outcome.actual_rows}"
        + (f"; error: {outcome.error}" if outcome.error else "")
    )

    span = _question_span(telemetry, question.qid)
    lines.append("")
    lines.append("span tree (virtual time):")
    if span is None:
        lines.append("  (no question span recorded)")
    else:
        lines.extend("  " + line for line in _render_span(span))

    cells = cells_for_question(provenance, question, pipeline)
    lines.append("")
    nulls = sum(1 for c in cells if c.null)
    degraded = sum(1 for c in cells if c.degraded)
    tiers = ", ".join(
        f"{tier}={count}" for tier, count in sorted(_tier_counts(cells).items())
    )
    lines.append(
        f"provenance: {len(cells)} cells ({nulls} null, {degraded} degraded)"
        + (f"; tiers: {tiers}" if cells else "")
    )
    interesting = [c for c in cells if c.null or c.degraded] or cells
    for cell in interesting[:_MAX_CHAINS]:
        lines.append(f"  {_chain_line(provenance, cell)}")
    if len(interesting) > _MAX_CHAINS:
        lines.append(f"  ... and {len(interesting) - _MAX_CHAINS} more")
    return "\n".join(lines)


def explain_request(
    request_id: int,
    *,
    scale: int = 1,
    seed: int = 0,
    horizon: Optional[float] = None,
    multiplier: float = 2.0,
    window_seconds: Optional[float] = None,
    trace_sample: Optional[int] = None,
) -> str:
    """Rerun one serving level and explain one request end to end.

    The rerun is the same deterministic virtual-clock simulation the
    load test runs, with a passive trace log attached, so the output is
    stable run over run: the request's terminal outcome, its span tree
    (attribution tiles exactly — zero unaccounted), the per-stage
    self-time table, its LLM spend, the tail sampler's verdict, and any
    SLO alert that carries this trace as its exemplar.
    """
    from repro.harness.benchserve import (
        DEFAULT_HORIZON, DEFAULT_TRACE_SAMPLE, SERVE_DATABASES,
        build_observability, default_config, default_tenants,
        measure_capacity, run_level,
    )
    from repro.harness.tracing import format_stage_summary
    from repro.obs.export import stage_summary
    from repro.obs.sampler import TailSampler
    from repro.obs.timeseries import DEFAULT_WINDOW_SECONDS
    from repro.serve.trace import ServeTraceLog, materialize_request
    from repro.swan.benchmark import load_benchmark_subset

    if multiplier <= 0:
        raise ReproError(f"multiplier must be > 0, got {multiplier}")
    horizon = horizon if horizon is not None else DEFAULT_HORIZON
    window_seconds = (
        window_seconds if window_seconds is not None
        else DEFAULT_WINDOW_SECONDS
    )
    swan = load_benchmark_subset(scale, list(SERVE_DATABASES))
    config = default_config()
    tenants = default_tenants()
    capacity = measure_capacity(
        swan, config, tenants, seed=seed, horizon=horizon
    )
    telemetry, tracker = build_observability(window_seconds=window_seconds)
    log = ServeTraceLog()
    run_level(
        swan, config, tenants, multiplier, capacity,
        seed=seed, horizon=horizon,
        telemetry=telemetry, slo_tracker=tracker, trace=log,
    )
    record = log.by_request_id(request_id)
    if record is None:
        ids = sorted(r.request_id for r in log.records)
        hint = (
            f"this run offered request ids {ids[0]}..{ids[-1]}"
            if ids else "this run offered no requests"
        )
        raise ReproError(
            f"no request {request_id} at {multiplier:g}x "
            f"(seed={seed}, horizon={horizon:g}s); {hint}"
        )
    sampler = TailSampler(
        seed=seed,
        slowest_k=(
            trace_sample if trace_sample is not None else DEFAULT_TRACE_SAMPLE
        ),
        window_seconds=window_seconds,
    )
    kept = sampler.decide(log.records)

    outcome = record.status + (f"/{record.reason}" if record.reason else "")
    lines = [
        f"== request {record.request_id} (trace {record.trace_id}) at "
        f"{multiplier:g}x capacity, seed={seed} ==",
        f"outcome: {outcome}  tenant={record.tenant} "
        f"db={record.database} pipeline={record.pipeline} "
        f"priority={record.priority}",
        f"timeline: arrival {record.arrival:.3f}s"
        + (f", dispatch {record.start:.3f}s" if record.start is not None else "")
        + (f", land {record.land:.3f}s" if record.land is not None else "")
        + f", finish {record.finish:.3f}s "
        f"(deadline {record.deadline_at:.3f}s) — "
        f"latency {record.latency:.3f}s, queue wait {record.queue_wait:.3f}s",
    ]
    if record.trace_id in kept:
        lines.append(
            f"tail sampler: KEPT ({kept[record.trace_id]})"
        )
    else:
        lines.append(
            "tail sampler: dropped (clean serve outside the slowest-"
            f"{sampler.slowest_k}; explain rebuilds it on demand anyway)"
        )

    root = materialize_request(record)
    lines.append("")
    lines.append("span tree (virtual time):")
    lines.extend("  " + line for line in _render_span(root))

    rows = stage_summary([root])
    unaccounted = sum(
        row["self_s"] for row in rows if row["stage"] == "(unaccounted)"
    )
    lines.append("")
    lines.append(format_stage_summary(
        rows,
        title=f"Stage attribution over {root.duration:.3f}s "
        f"offer-to-finish ({unaccounted:.6f}s unaccounted).",
    ))

    if record.llm_calls:
        lines.append("")
        lines.append(
            f"llm spend: {record.llm_calls} call(s), "
            f"{record.input_tokens} in / {record.output_tokens} out tokens, "
            f"{record.retries} retries"
        )
    if record.status == "degraded":
        lines.append(
            f"degradation: {record.reason}"
            + (
                f" ({record.degraded_keys} key(s) answered degraded)"
                if record.degraded_keys else ""
            )
        )

    named = [
        alert for alert in tracker.alerts
        if alert.exemplar == record.trace_id
    ]
    lines.append("")
    if named:
        lines.append(
            f"this trace is the exemplar of {len(named)} SLO alert(s):"
        )
        for alert in named:
            lines.append(
                f"  t={alert.time:>7.1f}  [{alert.severity}] {alert.slo} "
                f"burn={alert.burn_rate:.1f} (window {alert.window})"
            )
    else:
        lines.append("no SLO alert carries this trace as its exemplar.")
    return "\n".join(lines)
