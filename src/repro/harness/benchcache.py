"""The call-planner / persistent-cache bench (the ``cache`` artifact).

Measures what the run-level call planner and the persistent prompt cache
buy, in the currencies the paper's Table 4 prices — LLM calls, tokens,
and (virtual) wall-clock:

- **baseline** — the seed unplanned HQ UDFs path, cold caches, over a
  fresh :class:`~repro.llm.diskcache.PersistentPromptCache`;
- **warm** — the same run again over the populated disk cache; must
  issue **zero** new LLM calls and return the same answers;
- **planned (pairs mode)** — a :class:`~repro.plan.CallPlanner` pass:
  cross-question (attribute, key) dedup with
  :func:`~repro.plan.adaptive_batch_size` packing; fewer calls and
  tokens than the baseline, small accuracy drift allowed.  Its trace
  gives the planner's stage spans.

Virtual makespans come from the paid per-call token sizes fed through
the affine :class:`~repro.vtime.LatencyModel` — no sleeping.
"""

from __future__ import annotations

import tempfile
from typing import Optional, Sequence

from repro.llm.batching import DEFAULT_BATCH_SIZE
from repro.obs import Telemetry
from repro.obs.export import stage_summary
from repro.plan import explain_batch_size
from repro.harness.runner import GoldResults, UDFRun, run_udf
from repro.swan.benchmark import Swan, load_benchmark
from repro.vtime import LatencyModel, parallel_makespan, sequential_makespan

DEFAULT_WORKERS = 4


def _usage_record(
    run: UDFRun, workers: int, latency: LatencyModel
) -> dict:
    """The cost profile of one run: calls, tokens, virtual makespans."""
    return {
        "llm_calls": run.usage.calls,
        "input_tokens": run.usage.input_tokens,
        "output_tokens": run.usage.output_tokens,
        "ex": round(run.overall_ex, 4),
        "ex_by_db": {k: round(v, 4) for k, v in sorted(run.ex_by_db.items())},
        "sequential_seconds": round(
            sequential_makespan(run.call_sizes, latency), 2
        ),
        "parallel_seconds": round(
            parallel_makespan(run.call_sizes, workers, latency), 2
        ),
    }


def _same_results(a: UDFRun, b: UDFRun) -> bool:
    """Result identity: same rows, errors, and EX, question by question."""
    return (
        a.ex_by_db == b.ex_by_db
        and len(a.outcomes) == len(b.outcomes)
        and all(
            x.qid == y.qid
            and x.correct == y.correct
            and x.actual_rows == y.actual_rows
            and x.error == y.error
            for x, y in zip(a.outcomes, b.outcomes)
        )
    )


def measure_cache_bench(
    swan: Optional[Swan] = None,
    *,
    databases: Optional[Sequence[str]] = None,
    workers: int = DEFAULT_WORKERS,
    model_name: str = "gpt-3.5-turbo",
    shots: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    latency_model: Optional[LatencyModel] = None,
) -> dict:
    """The three-run cold/warm/planned comparison payload.

    The persistent cache lives in a temporary directory, so the baseline
    starts cold on every invocation.
    """
    swan = swan if swan is not None else load_benchmark()
    gold = GoldResults(swan)
    latency = latency_model if latency_model is not None else LatencyModel()
    common = dict(databases=databases, gold=gold, workers=workers)

    with tempfile.TemporaryDirectory() as disk_dir:
        baseline = run_udf(
            swan, model_name, shots, batch_size=batch_size,
            cache_dir=disk_dir, **common,
        )
        warm = run_udf(
            swan, model_name, shots, batch_size=batch_size,
            cache_dir=disk_dir, **common,
        )
    telemetry = Telemetry.on()
    adaptive_batch = explain_batch_size(model_name, shots)
    adaptive = run_udf(
        swan, model_name, shots, plan="pairs",
        batch_size=adaptive_batch["batch_size"], telemetry=telemetry, **common,
    )

    planner_stages = [
        record
        for record in stage_summary(telemetry.tracer.roots)
        if str(record.get("stage", "")).startswith("plan:")
    ]

    def _saved(cold: int, now: int) -> float:
        return round(100.0 * (cold - now) / cold, 2) if cold else 0.0

    payload = {
        "model": model_name,
        "shots": shots,
        "batch_size": batch_size,
        "workers": workers,
        "databases": sorted(baseline.ex_by_db),
        "baseline": {
            **_usage_record(baseline, workers, latency),
            "persistent": baseline.persistent,
        },
        "warm": {
            **_usage_record(warm, workers, latency),
            "zero_new_llm_calls": warm.usage.calls == 0,
            "persistent": warm.persistent,
            # Usage intentionally differs (the warm run pays nothing),
            # so only the answers are compared.
            "results_match_cold": _same_results(baseline, warm),
        },
        "planned_pairs": {
            **_usage_record(adaptive, workers, latency),
            "adaptive_batch": adaptive_batch,
            "plan_stats": adaptive.plan_stats,
            "calls_saved_pct": _saved(
                baseline.usage.calls, adaptive.usage.calls
            ),
            "tokens_saved_pct": _saved(
                baseline.usage.input_tokens + baseline.usage.output_tokens,
                adaptive.usage.input_tokens + adaptive.usage.output_tokens,
            ),
            "ex_delta": round(
                adaptive.overall_ex - baseline.overall_ex, 4
            ),
        },
        "planner_stages": planner_stages,
    }
    return payload


def format_cache_report(payload: dict) -> str:
    """Console table of the three runs."""
    from repro.eval.report import format_table

    rows = []
    for label, key in (
        ("baseline (cold, unplanned)", "baseline"),
        ("warm rerun (disk cache)", "warm"),
        ("planned, pairs + adaptive", "planned_pairs"),
    ):
        entry = payload[key]
        rows.append(
            [
                label,
                entry["llm_calls"],
                entry["input_tokens"] + entry["output_tokens"],
                f"{entry['ex'] * 100:.1f}%",
                f"{entry['sequential_seconds']:.0f} s",
                f"{entry['parallel_seconds']:.0f} s",
            ]
        )
    notes = [
        "warm rerun zero new calls: "
        + ("yes" if payload["warm"]["zero_new_llm_calls"] else "NO"),
        f"pairs-mode savings: {payload['planned_pairs']['calls_saved_pct']}% "
        f"calls, {payload['planned_pairs']['tokens_saved_pct']}% tokens",
    ]
    dedup = ", ".join(
        f"{db}: {stats['dedup_pct']}%"
        for db, stats in sorted(
            payload["planned_pairs"]["plan_stats"].items()
        )
    )
    if dedup:
        notes.append(f"cross-question pair dedup — {dedup}")
    table = format_table(
        ["Run", "LLM calls", "Tokens", "EX", "Sequential",
         f"Parallel x{payload['workers']}"],
        rows,
        title=f"Call planning & persistent cache on SWAN "
              f"({payload['model']}, {payload['shots']} shots).",
    )
    return table + "\n" + "\n".join(f"- {note}" for note in notes)
