"""The serving load test behind the ``serve`` artifact.

Sweeps the :class:`~repro.serve.server.QueryServer` across offered-load
levels — fractions and multiples of its *measured* capacity — and
records latency percentiles, throughput, shed rate, degraded-answer
rate, and per-tenant fairness at each level (``BENCH_serve.json``).

Everything runs on the virtual clock, so the sweep is deterministic:
two invocations with the same scale and seed produce byte-identical
JSON, which is what lets the regress gate pin serve-mode p99 latency.

Capacity is not guessed: a low-rate probe run measures the mean virtual
service time, and ``capacity ≈ max_concurrent / mean_service`` anchors
the multipliers.  The sweep always includes ≥2× capacity, where the
overload invariants actually bite — every offered request must still
terminate as exactly one of served / degraded / rejected.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs import FlightRecorder, Telemetry, WindowedAggregator
from repro.obs.export import stage_summary
from repro.obs.sampler import TailSampler
from repro.obs.slo import SLOAlert, SLOTracker, default_serving_slos
from repro.obs.timeseries import DEFAULT_RETENTION, DEFAULT_WINDOW_SECONDS
from repro.obs.trace import Span
from repro.serve.batcher import BatchingConfig
from repro.serve.server import QueryServer, ServeReport, ServerConfig
from repro.serve.trace import (
    ServeTraceLog,
    materialize_kept,
    materialize_request,
)
from repro.serve.traffic import TenantSpec, generate_traffic
from repro.swan.benchmark import Swan, load_benchmark_subset

#: default slowest-k kept per window by the tail sampler
DEFAULT_TRACE_SAMPLE = 3
SERVE_DATABASES = ("superhero", "formula_1")
#: offered load as multiples of measured capacity; 2× and 4× are the
#: sustained-overload points the degradation machinery exists for
DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_HORIZON = 120.0

#: the per-tenant outcome series the windows table is built from
_STATUS_SERIES = (
    ("offered", "serve.offered"),
    ("served", "serve.served"),
    ("degraded", "serve.degraded"),
    ("rejected", "serve.rejected"),
)


def default_tenants(
    databases: Sequence[str] = SERVE_DATABASES,
) -> list[TenantSpec]:
    """The two-class tenant mix every load level scales from.

    An interactive tenant (priority 0, tight deadline, concurrency
    capped) and a batch tenant (priority 1, loose deadline, periodic
    bursts, a quarter of its traffic through HQDL) — enough structure to
    exercise priorities, aging, quotas, and both pipelines.
    """
    databases = tuple(databases)
    return [
        TenantSpec(
            name="interactive",
            rate=0.5,
            priority=0,
            deadline_seconds=30.0,
            databases=databases,
            max_queued=8,
            max_concurrent=2,
        ),
        TenantSpec(
            name="batch",
            rate=0.3,
            priority=1,
            deadline_seconds=60.0,
            databases=databases,
            burst_every=25.0,
            burst_size=4,
            hqdl_share=0.25,
            max_queued=12,
            token_budget=5_000_000,
        ),
    ]


def offered_rps(tenants: Sequence[TenantSpec]) -> float:
    """Mean offered requests/second of a tenant mix, bursts included."""
    total = 0.0
    for spec in tenants:
        total += spec.rate
        if spec.burst_every is not None and spec.burst_size:
            total += spec.burst_size / spec.burst_every
    return total


def default_config() -> ServerConfig:
    return ServerConfig(workers=4, max_concurrent=3, queue_limit=24)


def measure_capacity(
    swan: Swan,
    config: ServerConfig,
    tenants: Sequence[TenantSpec],
    *,
    seed: int = 0,
    horizon: float = DEFAULT_HORIZON,
) -> float:
    """Requests/second the server sustains, from a low-rate probe run.

    At a trickle of offered load nothing queues, so the mean service
    time is pure per-request cost; ``max_concurrent`` of those run side
    by side at saturation.
    """
    base = offered_rps(tenants)
    probe = [spec.scaled(0.1 / base) for spec in tenants]
    requests = generate_traffic(swan, probe, horizon=horizon, seed=seed)
    if not requests:
        raise ReproError("capacity probe generated no traffic")
    policies = {spec.name: spec.policy() for spec in probe}
    with QueryServer(swan, config, policies=policies) as server:
        report = server.run(requests)
    services = [o.service_seconds for o in report.outcomes if o.answered]
    if not services:
        raise ReproError("capacity probe answered no requests")
    mean_service = sum(services) / len(services)
    if mean_service <= 0:
        raise ReproError("capacity probe measured zero service time")
    return config.max_concurrent / mean_service


def run_level(
    swan: Swan,
    config: ServerConfig,
    tenants: Sequence[TenantSpec],
    multiplier: float,
    capacity: float,
    *,
    seed: int = 0,
    horizon: float = DEFAULT_HORIZON,
    telemetry: Optional[Telemetry] = None,
    slo_tracker: Optional[SLOTracker] = None,
    batching: Optional[BatchingConfig] = None,
    trace: Optional[ServeTraceLog] = None,
) -> tuple[ServeReport, dict]:
    """One sweep point: a fresh server at ``multiplier × capacity``.

    ``batching`` turns on cross-request continuous batching for this
    level's server; ``None`` keeps the per-request dispatch path (and
    its byte-identical record).  ``trace`` attaches a passive per-request
    trace log (tracing on); the report and record are byte-identical
    with or without it.
    """
    base = offered_rps(tenants)
    target = multiplier * capacity
    scaled = [spec.scaled(target / base) for spec in tenants]
    requests = generate_traffic(swan, scaled, horizon=horizon, seed=seed)
    policies = {spec.name: spec.policy() for spec in scaled}
    if batching is not None:
        config = replace(config, batching=batching)
    with QueryServer(
        swan, config, policies=policies,
        telemetry=telemetry, slo_tracker=slo_tracker, trace=trace,
    ) as server:
        report = server.run(requests)
    record = report.as_record()
    record["multiplier"] = round(multiplier, 6)
    record["offered_rps"] = round(target, 6)
    return report, record


def _tokens_per_answer(record: dict) -> float:
    """Total LLM tokens per answered request in one level record."""
    answered = record["served"] + record["degraded"]
    if not answered:
        return 0.0
    return round(
        (record["input_tokens"] + record["output_tokens"]) / answered, 6
    )


def _saved_pct(off: float, on: float) -> float:
    """Percent of ``off`` saved by ``on`` (negative = a regression)."""
    if off <= 0:
        return 0.0
    return round(100.0 * (off - on) / off, 6)


def _batching_summary(off_record: dict, on_record: dict) -> dict:
    """The batched arm's summary, diffed against the unbatched record.

    Starts from the batched run's own ``batching`` stats (occupancy,
    coalesced/paid calls, flush reasons, fair-share token attribution)
    and grafts on the outcome/latency/spend scalars plus the two
    headline savings percentages the acceptance gate reads.
    """
    summary = dict(on_record["batching"])
    summary.update({
        "llm_calls": on_record["llm_calls"],
        "input_tokens": on_record["input_tokens"],
        "output_tokens": on_record["output_tokens"],
        "served": on_record["served"],
        "degraded": on_record["degraded"],
        "rejected": on_record["rejected"],
        "p50": on_record["p50"],
        "p95": on_record["p95"],
        "p99": on_record["p99"],
        "accounting_ok": on_record["accounting_ok"],
        "calls_saved_pct": _saved_pct(
            off_record["llm_calls"], on_record["llm_calls"]
        ),
        "tokens_per_answer_saved_pct": _saved_pct(
            _tokens_per_answer(off_record), _tokens_per_answer(on_record)
        ),
    })
    return summary


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's index over per-tenant shares; 1.0 for empty/uniform."""
    if not shares:
        return 1.0
    squares = sum(s * s for s in shares)
    if squares == 0:
        return 1.0
    total = sum(shares)
    return (total * total) / (len(shares) * squares)


def _window_stats(timeseries: WindowedAggregator, index: int) -> dict:
    """Outcome counts + latency percentiles for one window."""
    stats: dict = {
        "index": index,
        "start": round(timeseries.window_start(index), 6),
    }
    for label, name in _STATUS_SERIES:
        total = 0
        for tenant in timeseries.label_values(name, "tenant"):
            for row in timeseries.rows(name, tenant=tenant):
                if row.window == index:
                    total += row.count
                    break
        stats[label] = total
    for row in timeseries.rows("serve.latency"):
        if row.window == index:
            stats["latency"] = row.as_record()
            break
    return stats


def _alert_handler(telemetry: Telemetry):
    """Wire SLO alerts to the flight recorder: dump evidence at fire time.

    The server never sees this coupling — the tracker calls back into
    the harness, which snapshots the triggering window's stats and the
    flight-recorder tail into one incident.
    """
    timeseries = telemetry.timeseries
    flight = telemetry.flight

    def fire(alert: SLOAlert) -> None:
        first, last = timeseries.span()
        flight.incident(
            alert.as_record(),
            window=_window_stats(timeseries, alert.window),
            span={"first_window": first, "last_window": last},
        )

    return fire


def build_observability(
    *,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    retention: int = DEFAULT_RETENTION,
    incident_sink: Optional[Union[str, Path]] = None,
) -> tuple[Telemetry, SLOTracker]:
    """One serving run's telemetry bundle: windows + SLOs + flight ring.

    Alerts are wired so that the instant one fires, the flight recorder
    snapshots an incident (and appends it to ``incident_sink`` if set).
    """
    telemetry = Telemetry(
        timeseries=WindowedAggregator(window_seconds, retention),
        flight=FlightRecorder(sink=incident_sink),
    )
    tracker = SLOTracker(
        default_serving_slos(),
        window_seconds=window_seconds,
        on_alert=_alert_handler(telemetry),
    )
    return telemetry, tracker


def window_table(timeseries: WindowedAggregator) -> list[dict]:
    """Per-window serving rows with per-tenant accounting and fairness.

    Every retained window renders as one row — idle windows included —
    with global outcome counts, latency percentiles, queue depth, token
    and call spend per tenant, and Jain fairness over the tenants'
    answered shares *within that window*.
    """
    first, last = timeseries.span()
    if last < first:
        return []
    tenants = timeseries.label_values("serve.offered", "tenant")
    status = {
        (name, tenant): {
            row.window: row for row in timeseries.rows(name, tenant=tenant)
        }
        for _, name in _STATUS_SERIES
        for tenant in tenants
    }
    spend = {
        (name, tenant): {
            row.window: row for row in timeseries.rows(name, tenant=tenant)
        }
        for name in ("serve.tokens", "serve.llm_calls")
        for tenant in tenants
    }
    latency = {row.window: row for row in timeseries.rows("serve.latency")}
    depth = {row.window: row for row in timeseries.rows("serve.queue.depth")}
    rows = []
    for index in range(first, last + 1):
        per_tenant: dict[str, dict] = {}
        shares = []
        for tenant in tenants:
            entry = {}
            for label, name in _STATUS_SERIES:
                row = status[(name, tenant)].get(index)
                entry[label] = row.count if row is not None else 0
            tokens = spend[("serve.tokens", tenant)].get(index)
            calls = spend[("serve.llm_calls", tenant)].get(index)
            entry["tokens"] = int(tokens.sum) if tokens is not None else 0
            entry["llm_calls"] = int(calls.sum) if calls is not None else 0
            per_tenant[tenant] = entry
            if entry["offered"]:
                shares.append(
                    (entry["served"] + entry["degraded"]) / entry["offered"]
                )
        totals = {
            label: sum(per_tenant[t][label] for t in tenants)
            for label, _ in _STATUS_SERIES
        }
        lat = latency.get(index)
        dep = depth.get(index)
        rows.append({
            "window": index,
            "start": round(timeseries.window_start(index), 6),
            **totals,
            "shed_rate": (
                round(totals["rejected"] / totals["offered"], 6)
                if totals["offered"]
                else 0.0
            ),
            "p50": round(lat.p50, 6) if lat is not None else 0.0,
            "p95": round(lat.p95, 6) if lat is not None else 0.0,
            "p99": round(lat.p99, 6) if lat is not None else 0.0,
            "queue_depth_p95": round(dep.p95, 6) if dep is not None else 0.0,
            "fairness": round(jain_fairness(shares), 6),
            "per_tenant": per_tenant,
        })
    return rows


def slo_level_record(
    multiplier: float,
    target_rps: float,
    telemetry: Telemetry,
    tracker: SLOTracker,
) -> dict:
    """One sweep level's observability payload for BENCH_slo.json."""
    flight = telemetry.flight
    return {
        "multiplier": round(multiplier, 6),
        "offered_rps": round(target_rps, 6),
        "budgets": tracker.budgets(),
        "alerts": tracker.alert_timeline(),
        "incidents": len(flight.incidents),
        "flight_recorded": flight.recorded,
        "flight_dropped": flight.dropped,
        "windows": window_table(telemetry.timeseries),
    }


def trace_level_record(
    multiplier: float, log: ServeTraceLog, sampler: TailSampler
) -> dict:
    """One sweep level's trace payload for BENCH_serve_traces.json.

    Every kept trace is materialized and put through the stage summary;
    ``max_unaccounted_share`` is the worst per-trace fraction of
    offer-to-finish time that escaped the named stages — the acceptance
    gate pins it at 0.0 (the reconstruction tiles exactly).
    """
    kept = sampler.decide(log.records)
    waves = {wave.wave_id: wave for wave in log.waves}
    max_unaccounted = 0.0
    traces = []
    for record in sorted(log.records, key=lambda r: r.trace_id):
        reason = kept.get(record.trace_id)
        if reason is None:
            continue
        root = materialize_request(record, waves)
        rows = stage_summary([root])
        unaccounted = sum(
            row["self_s"] for row in rows if row["stage"] == "(unaccounted)"
        )
        share = unaccounted / root.duration if root.duration else 0.0
        max_unaccounted = max(max_unaccounted, share)
        summary = record.summary()
        summary["sampled"] = reason
        summary["stages"] = {
            row["stage"]: row["self_s"]
            for row in rows
            if row["stage"] != "(unaccounted)" and row["self_s"] > 0
        }
        traces.append(summary)
    return {
        "multiplier": round(multiplier, 6),
        "requests": len(log.records),
        "waves": len(log.waves),
        "sampler": sampler.stats(kept, len(log.records)),
        "max_unaccounted_share": round(max_unaccounted, 6),
        "traces": traces,
    }


def trace_spans(forest: Sequence[Span]) -> list[Span]:
    """Flatten a materialized forest for the JSONL/Chrome exporters."""
    return [span for root in forest for span in root.walk()]


class LoadSweep(NamedTuple):
    """One offered-load sweep's payloads.

    ``serve`` is the BENCH_serve payload; ``slo`` the BENCH_slo payload
    (None with observability off); ``traces`` the BENCH_serve_traces
    payload (None with tracing off); ``forest`` the highest-load
    level's kept span trees for the JSONL/Chrome exporters.
    """

    serve: dict
    slo: Optional[dict]
    traces: Optional[dict]
    forest: list[Span]


def sweep_offered_load(
    *,
    scale: int = 1,
    seed: int = 0,
    horizon: float = DEFAULT_HORIZON,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    databases: Sequence[str] = SERVE_DATABASES,
    config: Optional[ServerConfig] = None,
    window_seconds: Optional[float] = DEFAULT_WINDOW_SECONDS,
    retention: int = DEFAULT_RETENTION,
    incident_sink: Optional[Union[str, Path]] = None,
    batching: Optional[BatchingConfig] = None,
    tracing: Optional[TailSampler] = None,
) -> LoadSweep:
    """Sweep the server across offered-load levels.

    Observability (windows, SLOs, flight recorder appending incidents to
    ``incident_sink`` if set) attaches per level when ``window_seconds``
    is set, and is entirely absent when it is None; it is passive, so
    the serve payload is the same either way.

    With ``batching`` set, every level runs twice: the unbatched arm
    first (carrying the telemetry, so the SLO artifacts stay
    byte-identical to a batching-off sweep), then the batched arm,
    whose comparison grafts ``tokens_per_answer`` / ``batch_occupancy``
    / ``coalesced_calls`` / ``batching`` onto the level record.  The
    capacity probe always runs unbatched — capacity is a property of
    the per-request service path, and keeping it fixed makes the two
    arms face identical traffic.

    With ``tracing`` set, a fresh :class:`ServeTraceLog` also rides the
    unbatched arm of every level; the sampler's kept set becomes one
    trace-payload level, and the returned forest holds the *last*
    (highest-load) level's kept span trees plus their linked wave
    spans, ready for the JSONL/Chrome exporters."""
    swan = load_benchmark_subset(scale, list(databases))
    config = config if config is not None else default_config()
    tenants = default_tenants(databases)
    capacity = measure_capacity(
        swan, config, tenants, seed=seed, horizon=horizon
    )
    if incident_sink is not None:
        # the sink is append-at-fire-time; start each sweep from empty
        # so two runs at the same seed produce byte-identical files
        Path(incident_sink).unlink(missing_ok=True)
    levels = []
    slo_levels = []
    trace_levels = []
    forest: list[Span] = []
    for multiplier in multipliers:
        telemetry = tracker = None
        if window_seconds is not None:
            telemetry, tracker = build_observability(
                window_seconds=window_seconds,
                retention=retention,
                incident_sink=incident_sink,
            )
        trace_log = ServeTraceLog() if tracing is not None else None
        batched_log = (
            ServeTraceLog()
            if tracing is not None and batching is not None
            else None
        )
        _, record = run_level(
            swan, config, tenants, multiplier, capacity,
            seed=seed, horizon=horizon,
            telemetry=telemetry, slo_tracker=tracker, trace=trace_log,
        )
        if batching is not None:
            _, on_record = run_level(
                swan, config, tenants, multiplier, capacity,
                seed=seed, horizon=horizon, batching=batching,
                trace=batched_log,
            )
            record["tokens_per_answer"] = _tokens_per_answer(record)
            record["batch_occupancy"] = (
                on_record["batching"]["batch_occupancy"]
            )
            record["coalesced_calls"] = (
                on_record["batching"]["coalesced_calls"]
            )
            record["batching"] = _batching_summary(record, on_record)
        levels.append(record)
        if telemetry is not None and tracker is not None:
            slo_levels.append(
                slo_level_record(
                    multiplier, multiplier * capacity, telemetry, tracker
                )
            )
        if tracing is not None and trace_log is not None:
            level_trace = trace_level_record(multiplier, trace_log, tracing)
            if batched_log is not None:
                # the batched arm's traces carry the shared-wave link
                # spans; keep its sampler verdicts alongside
                level_trace["batched"] = trace_level_record(
                    multiplier, batched_log, tracing
                )
            trace_levels.append(level_trace)
            # the highest-load level is the one worth opening in a
            # trace viewer; export its kept forest (the batched arm's
            # when both arms ran — that one has the wave spans)
            export_log = batched_log if batched_log is not None else trace_log
            forest = materialize_kept(
                export_log, tracing.decide(export_log.records)
            )
    serve_payload = {
        "scale": scale,
        "seed": seed,
        "horizon": round(horizon, 6),
        "databases": list(databases),
        "model": config.model_name,
        "workers": config.workers,
        "max_concurrent": config.max_concurrent,
        "queue_limit": config.queue_limit,
        "capacity_rps": round(capacity, 6),
        "levels": levels,
    }
    if batching is not None:
        serve_payload["batch_window"] = round(batching.window, 6)
        serve_payload["max_batch"] = batching.max_batch
    trace_payload = None
    if tracing is not None:
        trace_payload = {
            "scale": scale,
            "seed": seed,
            "horizon": round(horizon, 6),
            "sampler": {
                "seed": tracing.seed,
                "slowest_k": tracing.slowest_k,
                "sample_rate": round(tracing.sample_rate, 6),
                "window_seconds": round(tracing.window_seconds, 6),
            },
            "export_multiplier": round(multipliers[-1], 6),
            "export_arm": "batched" if batching is not None else "unbatched",
            "levels": trace_levels,
        }
    if window_seconds is None:
        return LoadSweep(serve_payload, None, trace_payload, forest)
    slo_payload = {
        "scale": scale,
        "seed": seed,
        "horizon": round(horizon, 6),
        "window_seconds": round(window_seconds, 6),
        "retention": retention,
        "capacity_rps": round(capacity, 6),
        "slos": [slo.as_record() for slo in default_serving_slos()],
        "levels": slo_levels,
    }
    return LoadSweep(serve_payload, slo_payload, trace_payload, forest)


def format_serve_report(payload: dict) -> str:
    """The human-readable sweep table printed by the CLI."""
    lines = [
        "Serving load test "
        f"(scale={payload['scale']}, seed={payload['seed']}, "
        f"horizon={payload['horizon']:g}s, "
        f"capacity={payload['capacity_rps']:.3f} req/s)",
        "",
        f"{'load':>6} {'offered':>8} {'served':>7} {'degr':>6} {'rej':>6} "
        f"{'shed%':>7} {'p50':>8} {'p95':>8} {'p99':>8} {'thru':>7} "
        f"{'fair':>6} {'trips':>6}",
    ]
    for level in payload["levels"]:
        lines.append(
            f"{level['multiplier']:>5.2f}x "
            f"{level['offered']:>8} "
            f"{level['served']:>7} "
            f"{level['degraded']:>6} "
            f"{level['rejected']:>6} "
            f"{100 * level['shed_rate']:>6.1f}% "
            f"{level['p50']:>8.3f} "
            f"{level['p95']:>8.3f} "
            f"{level['p99']:>8.3f} "
            f"{level['throughput_rps']:>7.3f} "
            f"{level['fairness']:>6.3f} "
            f"{level['breaker_trips']:>6}"
        )
    batched = [lv for lv in payload["levels"] if "batching" in lv]
    if batched:
        window = payload.get("batch_window", 0.0)
        cap = payload.get("max_batch")
        lines.append("")
        lines.append(
            f"Cross-request batching (window={window:g}s"
            + (f", max_batch={cap}" if cap is not None else "")
            + ") vs per-request dispatch:"
        )
        lines.append(
            f"{'load':>6} {'calls':>7} {'batched':>8} {'saved%':>7} "
            f"{'tok/ans':>9} {'batched':>9} {'saved%':>7} "
            f"{'occup':>6} {'coal':>6} {'p99':>8}"
        )
        for level in batched:
            arm = level["batching"]
            lines.append(
                f"{level['multiplier']:>5.2f}x "
                f"{level['llm_calls']:>7} "
                f"{arm['llm_calls']:>8} "
                f"{arm['calls_saved_pct']:>6.1f}% "
                f"{level['tokens_per_answer']:>9.1f} "
                f"{arm['tokens_per_answer']:>9.1f} "
                f"{arm['tokens_per_answer_saved_pct']:>6.1f}% "
                f"{arm['batch_occupancy']:>6.2f} "
                f"{arm['coalesced_calls']:>6} "
                f"{arm['p99']:>8.3f}"
            )
    lines.append("")
    lines.append(
        "All latencies are virtual seconds; every offered request "
        "terminated as served, degraded, or rejected."
    )
    overload = [lv for lv in payload["levels"] if lv["multiplier"] >= 2.0]
    if overload:
        worst = overload[-1]
        lines.append(
            f"At {worst['multiplier']:g}x capacity: "
            f"{worst['served']} served, {worst['degraded']} degraded, "
            f"{worst['rejected']} rejected of {worst['offered']} offered "
            f"(accounting {'OK' if worst['accounting_ok'] else 'BROKEN'})."
        )
    return "\n".join(lines)


def format_serve_demo(report: ServeReport) -> str:
    """A compact single-run summary for the ``serve`` CLI target."""
    record = report.as_record()
    lines = [
        "Query server demo run",
        "",
        f"offered {record['offered']}, served {record['served']}, "
        f"degraded {record['degraded']}, rejected {record['rejected']} "
        f"(accounting {'OK' if record['accounting_ok'] else 'BROKEN'})",
        f"latency p50/p95/p99: {record['p50']:.3f} / {record['p95']:.3f} "
        f"/ {record['p99']:.3f} s (max {record['max_latency']:.3f} s)",
        f"throughput {record['throughput_rps']:.3f} req/s, "
        f"fairness {record['fairness']:.3f}, "
        f"breaker trips {record['breaker_trips']}, "
        f"max queue depth {record['max_queue_depth']}",
        f"llm: {record['llm_calls']} calls, "
        f"{record['input_tokens']} in / {record['output_tokens']} out tokens, "
        f"cache {record['cache_hits']} hits / {record['cache_misses']} misses",
    ]
    if "batching" in record:
        arm = record["batching"]
        lines.append(
            f"batching: window {arm['window']:g}s, "
            f"{arm['paid_calls']} paid of {arm['formed_calls']} formed calls "
            f"({arm['coalesced_calls']} coalesced), "
            f"occupancy {arm['batch_occupancy']:.2f}, "
            f"tokens/answer {arm['tokens_per_answer']:.1f}"
        )
    lines.append("")
    lines.append(
        f"{'tenant':<14} {'offered':>8} {'served':>7} {'degr':>6} {'rej':>6} "
        f"{'answered':>9}"
    )
    for tenant, stats in record["per_tenant"].items():
        lines.append(
            f"{tenant:<14} {stats['offered']:>8} {stats['served']:>7} "
            f"{stats['degraded']:>6} {stats['rejected']:>6} "
            f"{100 * stats['answered_share']:>8.1f}%"
        )
    return "\n".join(lines)


def format_slo_report(payload: dict) -> str:
    """The SLO/error-budget summary printed after the sweep table."""
    objectives = ", ".join(
        f"{slo['name']} {100 * slo['objective']:g}%"
        + (
            f" (≤{slo['latency_target']:g}s)"
            if slo["latency_target"] is not None
            else ""
        )
        for slo in payload["slos"]
    )
    lines = [
        f"SLO report (window={payload['window_seconds']:g}s, "
        f"retention={payload['retention']}): {objectives}",
        "",
        f"{'load':>6} "
        + " ".join(f"{slo['name'] + '.budget%':>20}" for slo in payload["slos"])
        + f" {'alerts':>7} {'incidents':>10}",
    ]
    for level in payload["levels"]:
        cells = " ".join(
            f"{100 * level['budgets'][slo['name']]['budget_consumed']:>19.1f}%"
            for slo in payload["slos"]
        )
        lines.append(
            f"{level['multiplier']:>5.2f}x {cells} "
            f"{len(level['alerts']):>7} {level['incidents']:>10}"
        )
    noisiest = max(
        payload["levels"], key=lambda lv: (len(lv["alerts"]), lv["multiplier"])
    )
    if noisiest["alerts"]:
        lines.append("")
        lines.append(f"Alert timeline at {noisiest['multiplier']:g}x:")
        for alert in noisiest["alerts"]:
            lines.append(
                f"  t={alert['time']:>7.1f}  [{alert['severity']}] "
                f"{alert['slo']} burn={alert['burn_rate']:.1f} "
                f"(window {alert['window']}, {alert['bad']}/{alert['total']} "
                f"bad over {alert['lookback_windows']}w)"
            )
    else:
        lines.append("")
        lines.append("No burn-rate alerts fired at any level.")
    return "\n".join(lines)


def format_trace_report(payload: dict) -> str:
    """The tail-sampling summary printed when tracing is on."""
    sampler = payload["sampler"]
    lines = [
        "Request tracing (tail sampler: "
        f"slowest_k={sampler['slowest_k']}, "
        f"sample_rate={sampler['sample_rate']:g}, "
        f"window={sampler['window_seconds']:g}s)",
        "",
        f"{'load':>6} {'requests':>9} {'kept':>6} {'outcome':>8} "
        f"{'slowest':>8} {'hash':>6} {'waves':>6} {'unacct':>8}",
    ]

    def row(level: dict) -> str:
        stats = level["sampler"]
        reasons = stats["kept_by_reason"]
        return (
            f"{level['multiplier']:>5.2f}x "
            f"{stats['total']:>9} "
            f"{stats['kept']:>6} "
            f"{reasons['outcome']:>8} "
            f"{reasons['slowest']:>8} "
            f"{reasons['hash']:>6} "
            f"{level['waves']:>6} "
            f"{100 * level['max_unaccounted_share']:>7.2f}%"
        )

    for level in payload["levels"]:
        lines.append(row(level))
    batched = [lv["batched"] for lv in payload["levels"] if "batched" in lv]
    if batched:
        lines.append("")
        lines.append(
            "Batched arm (exported spans carry the shared-wave links):"
        )
        for level in batched:
            lines.append(row(level))
    worst = max(
        max(
            lv["max_unaccounted_share"],
            lv.get("batched", {}).get("max_unaccounted_share", 0.0),
        )
        for lv in payload["levels"]
    )
    lines.append("")
    lines.append(
        "Every kept trace attributes 100% of offer-to-finish time to "
        "named stages."
        if worst == 0.0
        else f"WARNING: worst unaccounted share is {100 * worst:.4f}%."
    )
    return "\n".join(lines)
