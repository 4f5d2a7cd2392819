"""Run-level call planning: dedup, cache, and batching economics.

Regenerates the cold/planned/warm comparison behind the ``cache`` artifact on
one database and asserts the properties the planner is sold on:

- prompt-mode planning is **free**: results, EX, and token totals are
  byte-identical to the unplanned run — the plan only front-loads calls;
- a warm rerun over the persistent prompt cache issues **zero** new
  LLM calls;
- pairs-mode planning with adaptive batching **pays less** than the
  unplanned baseline — fewer calls and fewer tokens, from cross-question
  (attribute, key) dedup plus fuller batches;
- the planner's stage spans (``plan:collect``/``plan:dedup``/
  ``plan:dispatch``) appear in the trace export.
"""

from repro.eval.report import format_table
from repro.harness.benchcache import measure_cache_bench

DATABASE = "superhero"
WORKERS = 4


def test_planner_cold_warm_and_pairs_economics(swan, show):
    payload = measure_cache_bench(
        swan, databases=[DATABASE], workers=WORKERS
    )
    rows = []
    for label, key in (
        ("baseline (cold, unplanned)", "baseline"),
        ("planned, prompt mode", "planned_prompt"),
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
                f"{entry['parallel_seconds']:.0f} s",
            ]
        )
    show(format_table(
        ["Run", "LLM calls", "Tokens", "EX", f"Parallel x{WORKERS}"],
        rows,
        title=f"Call planning and persistent caching on {DATABASE} "
              f"({payload['model']}, {payload['shots']} shots).",
    ))

    baseline = payload["baseline"]
    planned = payload["planned_prompt"]
    warm = payload["warm"]
    pairs = payload["planned_pairs"]

    # prompt mode is behaviour-preserving, to the byte
    assert planned["byte_identical_to_baseline"]
    assert planned["llm_calls"] == baseline["llm_calls"]
    assert planned["input_tokens"] == baseline["input_tokens"]

    # the cross-question prompt overlap the plan deduplicates is real
    stats = planned["plan_stats"][DATABASE]
    assert stats["dedup_pct"] > 20.0, stats

    # warm rerun: the disk cache answers everything
    assert warm["zero_new_llm_calls"]
    assert warm["results_match_cold"]
    assert warm["persistent"][DATABASE]["hits"] > 0
    assert warm["persistent"][DATABASE]["stores"] == 0

    # pairs mode pays measurably less than the seed path
    assert pairs["llm_calls"] < baseline["llm_calls"]
    total_tokens = pairs["input_tokens"] + pairs["output_tokens"]
    baseline_tokens = baseline["input_tokens"] + baseline["output_tokens"]
    assert total_tokens < baseline_tokens
    assert pairs["calls_saved_pct"] >= 5.0, pairs["calls_saved_pct"]
    # 10 pp of EX headroom for model-noise drift from repacked prompts
    assert abs(pairs["ex_delta"]) <= 0.10, pairs["ex_delta"]

    # planner stages are visible in the trace export
    stages = {record["stage"] for record in payload["planner_stages"]}
    assert {"plan:collect", "plan:dedup", "plan:dispatch"} <= stages
