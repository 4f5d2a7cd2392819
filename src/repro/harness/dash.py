"""The console serving dashboard behind ``python -m repro.harness dash``.

One overloaded serving run (2x measured capacity by default) with the
full observability bundle attached, rendered as a terminal dashboard:
per-window sparklines for the headline series, the windowed table with
per-tenant accounting and fairness, SLO error budgets, the burn-rate
alert timeline, and the flight-recorder incident summary.

Everything runs on the virtual clock, so the dashboard is deterministic:
the same seed renders the same bytes.  The run itself is byte-identical
to an uninstrumented one — the dashboard only *reads* what the passive
telemetry recorded.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.benchserve import (
    DEFAULT_HORIZON,
    SERVE_DATABASES,
    build_observability,
    default_config,
    default_tenants,
    format_expansion,
    format_startup,
    measure_capacity,
    run_level,
    slo_level_record,
    trace_level_record,
)
from repro.obs.sampler import TailSampler
from repro.obs.timeseries import DEFAULT_WINDOW_SECONDS
from repro.serve.trace import ServeTraceLog
from repro.swan.benchmark import load_benchmark_subset

#: eight block glyphs, lowest to highest — one per window
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: widest the dashboard tables get before older windows are elided
MAX_TABLE_WINDOWS = 16

#: how many kept traces the "slowest traces" panel shows
MAX_TRACE_ROWS = 5

#: one glyph per stage in the per-trace self-time bar
_STAGE_GLYPHS = (
    ("serve:queue", "q"),
    ("serve:service", "v"),
    ("serve:overhead", "o"),
    ("serve:llm", "#"),
    ("llm:backoff", "b"),
    ("serve:degrade", "d"),
)

#: width of the per-trace stage bar, in glyphs
_TRACE_BAR_WIDTH = 24


def trace_bar(stages: dict, total: float, width: int = _TRACE_BAR_WIDTH) -> str:
    """Proportional per-stage self-time bar for one trace.

    Stages render in rough chronological order (queue, service overhead,
    llm, backoff) with cumulative rounding, so
    the bar is always exactly ``width`` glyphs and every visible stage
    gets at least its proportional share.
    """
    if total <= 0:
        return "·" * width
    parts: list[str] = []
    consumed = 0.0
    filled = 0
    for name, glyph in _STAGE_GLYPHS:
        self_s = stages.get(name, 0.0)
        if self_s <= 0:
            continue
        consumed += self_s
        target = min(width, int(round(width * consumed / total)))
        parts.append(glyph * (target - filled))
        filled = target
    if filled < width:
        parts.append("·" * (width - filled))
    return "".join(parts)


def sparkline(values: Sequence[float]) -> str:
    """Render values as one block glyph each, scaled to the peak."""
    peak = max(values, default=0.0)
    if peak <= 0:
        return SPARK_BLOCKS[0] * len(values)
    return "".join(
        SPARK_BLOCKS[min(len(SPARK_BLOCKS) - 1,
                         int(max(0.0, v) / peak * len(SPARK_BLOCKS)))]
        for v in values
    )


def run_dash(
    *,
    scale: int = 1,
    seed: int = 0,
    horizon: float = DEFAULT_HORIZON,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    multiplier: float = 2.0,
    databases: Sequence[str] = SERVE_DATABASES,
    sampler: Optional[TailSampler] = None,
) -> tuple[dict, str]:
    """One instrumented serving run; returns (payload, rendered text).

    With ``sampler`` set, a trace log rides the run and the dashboard
    gains a "slowest traces" panel with per-stage self-time bars.
    """
    swan = load_benchmark_subset(scale, list(databases))
    config = default_config()
    tenants = default_tenants(databases)
    capacity = measure_capacity(
        swan, config, tenants, seed=seed, horizon=horizon
    )
    telemetry, tracker = build_observability(window_seconds=window_seconds)
    trace_log = ServeTraceLog() if sampler is not None else None
    report, record = run_level(
        swan, config, tenants, multiplier, capacity,
        seed=seed, horizon=horizon,
        telemetry=telemetry, slo_tracker=tracker, trace=trace_log,
    )
    payload = slo_level_record(multiplier, multiplier * capacity, telemetry, tracker)
    payload["window_seconds"] = round(window_seconds, 6)
    payload["capacity_rps"] = round(capacity, 6)
    payload["seed"] = seed
    payload["horizon"] = round(horizon, 6)
    payload["serve"] = record
    if sampler is not None and trace_log is not None:
        payload["traces"] = _trace_panel(multiplier, trace_log, sampler)
    return payload, format_dash(payload)


def _trace_panel(
    multiplier: float, log: ServeTraceLog, sampler: TailSampler
) -> dict:
    """The slowest-traces panel: kept counts, the worst unaccounted share
    over every kept trace, and the slowest kept traces' summaries (each
    with its per-stage self-times)."""
    level = trace_level_record(multiplier, log, sampler)
    ranked = sorted(level["traces"], key=lambda t: (-t["latency"], t["trace_id"]))
    return {
        "sampler": level["sampler"],
        "max_unaccounted_share": level["max_unaccounted_share"],
        "slowest": ranked[:MAX_TRACE_ROWS],
    }


def _tenant_totals(windows: list[dict]) -> dict[str, dict]:
    totals: dict[str, dict] = {}
    for row in windows:
        for tenant, stats in row["per_tenant"].items():
            into = totals.setdefault(
                tenant,
                {k: 0 for k in
                 ("offered", "served", "degraded", "rejected",
                  "tokens", "llm_calls")},
            )
            for key in into:
                into[key] += stats[key]
    return totals


def format_dash(payload: dict) -> str:
    """Render one instrumented run as the console dashboard."""
    windows = payload["windows"]
    serve = payload["serve"]
    lines = [
        f"Serving dashboard — {payload['multiplier']:g}x capacity "
        f"({payload['offered_rps']:.3f} req/s offered), seed "
        f"{payload['seed']}, horizon {payload['horizon']:g}s, "
        f"{payload['window_seconds']:g}s windows",
        "",
    ]
    series = [
        ("offered/s", [w["offered"] for w in windows]),
        ("served/s", [w["served"] for w in windows]),
        ("degraded/s", [w["degraded"] for w in windows]),
        ("rejected/s", [w["rejected"] for w in windows]),
        ("p99 latency", [w["p99"] for w in windows]),
        ("queue p95", [w["queue_depth_p95"] for w in windows]),
    ]
    for label, values in series:
        peak = max(values, default=0.0)
        lines.append(f"{label:>12} {sparkline(values)}  peak {peak:g}")
    lines.append("")
    lines.append(
        f"{'t':>6} {'off':>5} {'srv':>5} {'deg':>5} {'rej':>5} "
        f"{'shed%':>6} {'p50':>7} {'p99':>7} {'fair':>6}"
    )
    visible = windows[-MAX_TABLE_WINDOWS:]
    if len(windows) > len(visible):
        lines.append(f"  ... {len(windows) - len(visible)} earlier windows elided")
    for row in visible:
        lines.append(
            f"{row['start']:>6.0f} {row['offered']:>5} {row['served']:>5} "
            f"{row['degraded']:>5} {row['rejected']:>5} "
            f"{100 * row['shed_rate']:>5.1f}% {row['p50']:>7.2f} "
            f"{row['p99']:>7.2f} {row['fairness']:>6.3f}"
        )
    lines.append("")
    lines.append(
        f"{'tenant':<14} {'offered':>8} {'served':>7} {'degr':>6} "
        f"{'rej':>6} {'tokens':>10} {'calls':>6}"
    )
    for tenant, totals in sorted(_tenant_totals(windows).items()):
        lines.append(
            f"{tenant:<14} {totals['offered']:>8} {totals['served']:>7} "
            f"{totals['degraded']:>6} {totals['rejected']:>6} "
            f"{totals['tokens']:>10} {totals['llm_calls']:>6}"
        )
    lines.append("")
    lines.append("SLO error budgets:")
    for name, budget in payload["budgets"].items():
        lines.append(
            f"  {name:<14} objective {100 * budget['objective']:g}%  "
            f"bad {budget['bad']}/{budget['bad'] + budget['good']}  "
            f"budget consumed {100 * budget['budget_consumed']:.1f}%"
        )
    if payload["alerts"]:
        lines.append("")
        lines.append("Alert timeline:")
        for alert in payload["alerts"]:
            lines.append(
                f"  t={alert['time']:>7.1f}  [{alert['severity']}] "
                f"{alert['slo']} burn={alert['burn_rate']:.1f} "
                f"(window {alert['window']}, {alert['bad']}/{alert['total']} "
                f"bad over {alert['lookback_windows']}w)"
            )
    else:
        lines.append("")
        lines.append("No burn-rate alerts fired.")
    if "traces" in payload:
        panel = payload["traces"]
        stats = panel["sampler"]
        reasons = stats["kept_by_reason"]
        legend = " ".join(
            f"{glyph}={name.split(':', 1)[1]}" for name, glyph in _STAGE_GLYPHS
        )
        lines.append("")
        lines.append(
            f"Slowest sampled traces — kept {stats['kept']} of "
            f"{stats['total']} ({reasons['outcome']} outcome, "
            f"{reasons['slowest']} slowest, {reasons['hash']} hash); "
            f"{legend}:"
        )
        for trace in panel["slowest"]:
            outcome = trace["status"] + (
                f"/{trace['reason']}" if trace["reason"] else ""
            )
            lines.append(
                f"  {trace['trace_id']}  {outcome:<24} "
                f"{trace['latency']:>8.3f}s  "
                f"{trace_bar(trace['stages'], trace['latency'])}"
            )
        lines.append(
            "  worst unaccounted share "
            f"{100 * panel['max_unaccounted_share']:.2f}% of a kept trace's "
            "offer-to-finish time"
        )
    lines.append("")
    lines.append(
        f"Flight recorder: {payload['flight_recorded']} events recorded "
        f"({payload['flight_dropped']} dropped), "
        f"{payload['incidents']} incident(s) captured."
    )
    lines.append(format_startup(serve["startup"]))
    lines.append(format_expansion(serve["mapping"]))
    lines.append(
        f"Run accounting: {serve['offered']} offered = {serve['served']} "
        f"served + {serve['degraded']} degraded + {serve['rejected']} "
        f"rejected ({'OK' if serve['accounting_ok'] else 'BROKEN'})."
    )
    return "\n".join(lines)
