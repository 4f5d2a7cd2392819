"""``python -m repro.harness regress``: regression gating over the ledger.

Runs the canonical regression workload (HQ UDFs on ``superhero``,
``gpt-3.5-turbo``, 0-shot — deterministic under the mock oracle),
appends it to the persistent :class:`~repro.obs.ledger.RunLedger`, and
diffs the fresh run against a committed baseline JSON:

- **EX drop** beyond ``--max-ex-drop`` (default 0.0 — any drop fails);
- **token growth** beyond ``--max-token-growth`` (default 10%);
- **virtual-makespan growth** beyond ``--max-makespan-growth``
  (default 25%).

When a fresh ``BENCH_scale.json`` (from ``artifacts scale``) sits next
to the ledger, its scale-10 UDF virtual makespan is diffed against
the baseline's ``scale10_makespan`` under the same
``--max-makespan-growth`` threshold — gating the scaling hot path, not
just the scale-1 workload.  Likewise a fresh ``BENCH_serve.json`` (from
``artifacts serve``) pins serve-mode p99 latency at the lowest offered-load
level against the baseline's ``serve_p99`` — gating the serving path's
per-request latency — and a fresh ``BENCH_slo.json`` pins the
availability error budget consumed at the lowest load level against the
baseline's ``slo_budget`` (an *absolute* increase bound: at a trickle
of load the server should shed nothing, so the budget burned there is
~0 and relative growth would be meaningless).  The same BENCH_serve.json
also pins tokens-per-answer at the 1x level against the baseline's
``serve_tokens_per_answer`` under the token-growth threshold.  A
missing bench file or baseline key only notes the omission; it never
fails the gate.

Exit code 1 on any breach, 0 when clean — so CI can gate on it.
``--update-baseline`` rewrites the baseline from the fresh run instead
of diffing (exit 0).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.harness.artifacts import ARTIFACTS
from repro.obs.ledger import RunLedger, config_fingerprint

#: Default artifact locations, relative to the invocation directory.
DEFAULT_LEDGER = "BENCH_ledger.sqlite"
DEFAULT_BASELINE = "baselines/regress_baseline.json"
DEFAULT_SCALE_BENCH = "BENCH_scale.json"
#: the serve artifact's first two files, named once in its registry entry
DEFAULT_SERVE_BENCH, DEFAULT_SLO_BENCH = ARTIFACTS["serve"].files[:2]

#: Max *absolute* increase in the lowest-load availability error budget
#: consumed fraction (baseline is ~0, so a relative bound is useless).
MAX_SLO_BUDGET_INCREASE = 0.02

#: The fixed regression workload (small, deterministic, ~seconds).
_REGRESS_LABEL = "regress"
_REGRESS_DATABASES = ("superhero",)
_REGRESS_MODEL = "gpt-3.5-turbo"
_REGRESS_SHOTS = 0
_REGRESS_WORKERS = 4

#: The scalars a baseline must carry to be diffable.
BASELINE_FIELDS = ("ex", "total_tokens", "makespan")


def _run_workload(ledger: RunLedger) -> dict:
    """Run the regression workload, append it, return its ledger row."""
    from repro.harness.runner import run_udf
    from repro.swan.benchmark import load_benchmark

    swan = load_benchmark()
    run_udf(
        swan,
        _REGRESS_MODEL,
        _REGRESS_SHOTS,
        databases=list(_REGRESS_DATABASES),
        workers=_REGRESS_WORKERS,
        ledger=ledger,
        ledger_label=_REGRESS_LABEL,
    )
    row = ledger.latest(label=_REGRESS_LABEL)
    assert row is not None  # append just happened
    return row


def _baseline_from_row(row: dict) -> dict:
    return {
        "label": row["label"],
        "pipeline": row["pipeline"],
        "fingerprint": row["fingerprint"],
        "ex": row["ex"],
        "total_tokens": row["input_tokens"] + row["output_tokens"],
        "makespan": row["makespan"],
        "llm_calls": row["llm_calls"],
        "config": row["payload"].get("config", {}),
    }


def load_baseline(path: Union[str, Path]) -> Optional[dict]:
    """The baseline dict, or None when missing/unreadable/incomplete."""
    path = Path(path)
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(baseline, dict):
        return None
    if any(not isinstance(baseline.get(f), (int, float)) for f in BASELINE_FIELDS):
        return None
    return baseline


def write_baseline(
    path: Union[str, Path],
    row: dict,
    *,
    scale10_makespan: Optional[float] = None,
    serve_p99: Optional[float] = None,
    slo_budget: Optional[float] = None,
    serve_tokens_per_answer: Optional[float] = None,
) -> dict:
    """Write (and return) a baseline JSON distilled from one ledger row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    baseline = _baseline_from_row(row)
    if scale10_makespan is not None:
        baseline["scale10_makespan"] = scale10_makespan
    if serve_p99 is not None:
        baseline["serve_p99"] = serve_p99
    if slo_budget is not None:
        baseline["slo_budget"] = slo_budget
    if serve_tokens_per_answer is not None:
        baseline["serve_tokens_per_answer"] = serve_tokens_per_answer
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return baseline


def scale10_makespan(path: Union[str, Path]) -> Optional[float]:
    """The scale-10 UDF virtual makespan from a BENCH_scale.json, if any."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        value = payload["scales"]["10"]["pipelines"]["udf"]["makespan_seconds"]
    except (KeyError, TypeError):
        return None
    return float(value) if isinstance(value, (int, float)) else None


def serve_p99(path: Union[str, Path]) -> Optional[float]:
    """Lowest-load p99 latency from a BENCH_serve.json, if any.

    The lowest offered-load level is pure service latency (no queueing),
    so growth there means the serving path itself got slower.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        levels = payload["levels"]
        lowest = min(levels, key=lambda level: level["multiplier"])
        value = lowest["p99"]
    except (KeyError, TypeError, ValueError):
        return None
    return float(value) if isinstance(value, (int, float)) else None


def serve_tokens_per_answer(path: Union[str, Path]) -> Optional[float]:
    """Tokens-per-answer at the 1x load level from a BENCH_serve.json.

    None when the file, the 1x level or its ``tokens_per_answer`` is
    missing — the gate notes the omission rather than failing.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        level = next(
            lv for lv in payload["levels"]
            if abs(lv["multiplier"] - 1.0) < 1e-9
        )
    except (KeyError, TypeError, StopIteration):
        return None
    value = level.get("tokens_per_answer") if isinstance(level, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def slo_budget_consumed(path: Union[str, Path]) -> Optional[float]:
    """Lowest-load availability budget consumed from a BENCH_slo.json.

    At the lowest offered-load level nothing should shed, so the
    availability error budget burned there is the serving path's
    background refusal rate — any increase is a behavior change.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        levels = payload["levels"]
        lowest = min(levels, key=lambda level: level["multiplier"])
        value = lowest["budgets"]["availability"]["budget_consumed"]
    except (KeyError, TypeError, ValueError):
        return None
    return float(value) if isinstance(value, (int, float)) else None


def _growth(latest: float, baseline: float) -> float:
    if baseline <= 0:
        return 0.0 if latest <= 0 else float("inf")
    return (latest - baseline) / baseline


def diff_against_baseline(
    row: dict,
    baseline: dict,
    *,
    max_ex_drop: float = 0.0,
    max_token_growth: float = 0.10,
    max_makespan_growth: float = 0.25,
    fresh_scale10: Optional[float] = None,
    fresh_serve_p99: Optional[float] = None,
    fresh_slo_budget: Optional[float] = None,
    fresh_serve_tpa: Optional[float] = None,
    max_slo_budget_increase: float = MAX_SLO_BUDGET_INCREASE,
) -> tuple[bool, list[str]]:
    """(ok, report lines) for one fresh ledger row vs one baseline.

    ``fresh_scale10`` is the scale-10 UDF virtual makespan from a fresh
    BENCH_scale.json; it is diffed against the baseline's
    ``scale10_makespan`` when both sides exist, and noted otherwise.
    ``fresh_serve_p99`` (lowest-load p99 from a fresh BENCH_serve.json)
    is likewise diffed against the baseline's ``serve_p99``, and
    ``fresh_slo_budget`` (lowest-load availability budget consumed from
    a fresh BENCH_slo.json) against ``slo_budget`` as an absolute
    increase bound, and ``fresh_serve_tpa`` (tokens-per-answer at the
    1x level) against ``serve_tokens_per_answer`` under the token-growth
    threshold — pinning the serving economy.
    """
    fresh = _baseline_from_row(row)
    lines: list[str] = []
    ok = True

    if fresh["fingerprint"] != baseline.get("fingerprint"):
        lines.append(
            "note: config fingerprint changed "
            f"({baseline.get('fingerprint')} -> {fresh['fingerprint']}); "
            "thresholds still apply, consider --update-baseline"
        )

    checks = (
        (
            "EX",
            baseline["ex"],
            fresh["ex"],
            baseline["ex"] - fresh["ex"],
            max_ex_drop,
            "drop",
        ),
        (
            "tokens",
            baseline["total_tokens"],
            fresh["total_tokens"],
            _growth(fresh["total_tokens"], baseline["total_tokens"]),
            max_token_growth,
            "growth",
        ),
        (
            "makespan",
            baseline["makespan"],
            fresh["makespan"],
            _growth(fresh["makespan"], baseline["makespan"]),
            max_makespan_growth,
            "growth",
        ),
    )
    base_scale10 = baseline.get("scale10_makespan")
    if isinstance(base_scale10, (int, float)) and fresh_scale10 is not None:
        checks += (
            (
                "scale10 makespan",
                float(base_scale10),
                fresh_scale10,
                _growth(fresh_scale10, float(base_scale10)),
                max_makespan_growth,
                "growth",
            ),
        )
    elif fresh_scale10 is not None:
        lines.append(
            "note: baseline has no scale10_makespan; "
            "run with --update-baseline next to a fresh BENCH_scale.json"
        )
    elif isinstance(base_scale10, (int, float)):
        lines.append(
            "note: no BENCH_scale.json with a scale-10 rung found; "
            "scale-10 makespan not checked"
        )
    base_serve = baseline.get("serve_p99")
    if isinstance(base_serve, (int, float)) and fresh_serve_p99 is not None:
        checks += (
            (
                "serve p99",
                float(base_serve),
                fresh_serve_p99,
                _growth(fresh_serve_p99, float(base_serve)),
                max_makespan_growth,
                "growth",
            ),
        )
    elif fresh_serve_p99 is not None:
        lines.append(
            "note: baseline has no serve_p99; "
            "run with --update-baseline next to a fresh BENCH_serve.json"
        )
    elif isinstance(base_serve, (int, float)):
        lines.append(
            "note: no BENCH_serve.json found; serve p99 not checked"
        )
    base_tpa = baseline.get("serve_tokens_per_answer")
    if isinstance(base_tpa, (int, float)) and fresh_serve_tpa is not None:
        checks += (
            (
                "serve tokens/answer",
                float(base_tpa),
                fresh_serve_tpa,
                _growth(fresh_serve_tpa, float(base_tpa)),
                max_token_growth,
                "growth",
            ),
        )
    elif fresh_serve_tpa is not None:
        lines.append(
            "note: baseline has no serve_tokens_per_answer; "
            "run with --update-baseline next to a fresh BENCH_serve.json"
        )
    elif isinstance(base_tpa, (int, float)):
        lines.append(
            "note: BENCH_serve.json has no 1x tokens-per-answer; "
            "serve economy not checked"
        )
    base_budget = baseline.get("slo_budget")
    if isinstance(base_budget, (int, float)) and fresh_slo_budget is not None:
        checks += (
            (
                "slo budget",
                float(base_budget),
                fresh_slo_budget,
                fresh_slo_budget - float(base_budget),
                max_slo_budget_increase,
                "increase",
            ),
        )
    elif fresh_slo_budget is not None:
        lines.append(
            "note: baseline has no slo_budget; "
            "run with --update-baseline next to a fresh BENCH_slo.json"
        )
    elif isinstance(base_budget, (int, float)):
        lines.append(
            "note: no BENCH_slo.json found; error budget not checked"
        )
    for name, base, latest, delta, threshold, kind in checks:
        breached = delta > threshold + 1e-9
        status = "FAIL" if breached else "ok"
        ok = ok and not breached
        lines.append(
            f"{name}: baseline {base:g}, latest {latest:g}, "
            f"{kind} {delta:+.4g} (max {threshold:g}) [{status}]"
        )
    return ok, lines


def run_regress(
    *,
    ledger_path: Union[str, Path] = DEFAULT_LEDGER,
    baseline_path: Union[str, Path] = DEFAULT_BASELINE,
    update_baseline: bool = False,
    max_ex_drop: float = 0.0,
    max_token_growth: float = 0.10,
    max_makespan_growth: float = 0.25,
    scale_bench_path: Union[str, Path] = DEFAULT_SCALE_BENCH,
    serve_bench_path: Union[str, Path] = DEFAULT_SERVE_BENCH,
    slo_bench_path: Union[str, Path] = DEFAULT_SLO_BENCH,
) -> tuple[int, str]:
    """Run the workload, append to the ledger, diff vs the baseline.

    Returns ``(exit_code, report_text)``: 0 clean, 1 on a regression or
    a missing baseline.
    """
    with RunLedger(ledger_path) as ledger:
        row = _run_workload(ledger)
        history = len(ledger)
    lines = [
        f"regress run #{row['id']} appended to {ledger_path} "
        f"({history} run(s) on record)",
        f"workload: {row['pipeline']} on {','.join(_REGRESS_DATABASES)}, "
        f"{_REGRESS_MODEL}, {_REGRESS_SHOTS}-shot, fingerprint "
        f"{row['fingerprint']}",
    ]

    fresh_scale10 = scale10_makespan(scale_bench_path)
    fresh_serve = serve_p99(serve_bench_path)
    fresh_budget = slo_budget_consumed(slo_bench_path)
    fresh_tpa = serve_tokens_per_answer(serve_bench_path)

    if update_baseline:
        baseline = write_baseline(
            baseline_path, row,
            scale10_makespan=fresh_scale10, serve_p99=fresh_serve,
            slo_budget=fresh_budget, serve_tokens_per_answer=fresh_tpa,
        )
        lines.append(
            f"baseline updated: {baseline_path} "
            f"(ex {baseline['ex']:g}, tokens {baseline['total_tokens']}, "
            f"makespan {baseline['makespan']:g}"
            + (
                f", scale10 makespan {fresh_scale10:g}"
                if fresh_scale10 is not None
                else "; no BENCH_scale.json scale-10 rung found"
            )
            + (
                f", serve p99 {fresh_serve:g}"
                if fresh_serve is not None
                else "; no BENCH_serve.json found"
            )
            + (
                f", slo budget {fresh_budget:g}"
                if fresh_budget is not None
                else "; no BENCH_slo.json found"
            )
            + (
                f", serve tokens/answer {fresh_tpa:g})"
                if fresh_tpa is not None
                else "; no 1x tokens-per-answer in BENCH_serve.json)"
            )
        )
        return 0, "\n".join(lines)

    baseline = load_baseline(baseline_path)
    if baseline is None:
        lines.append(
            f"no usable baseline at {baseline_path}; "
            "run with --update-baseline to create one"
        )
        return 1, "\n".join(lines)

    ok, diff_lines = diff_against_baseline(
        row,
        baseline,
        max_ex_drop=max_ex_drop,
        max_token_growth=max_token_growth,
        max_makespan_growth=max_makespan_growth,
        fresh_scale10=fresh_scale10,
        fresh_serve_p99=fresh_serve,
        fresh_slo_budget=fresh_budget,
        fresh_serve_tpa=fresh_tpa,
    )
    lines.extend(diff_lines)
    lines.append("regression check: " + ("PASS" if ok else "FAIL"))
    return (0 if ok else 1), "\n".join(lines)
