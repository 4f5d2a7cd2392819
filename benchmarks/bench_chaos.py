"""Chaos bench: EX/F1 degradation vs fault intensity, with retries.

Sweeps both pipelines over increasing fault rates through the resilient
dispatch stack (FaultyClient -> RetryingClient -> cache), the payload
behind ``BENCH_chaos.json``.  Two properties are asserted, mirroring the
tier-1 chaos tests at bench scale:

- the rate-0 point of each pipeline equals the fault-free baseline
  (the resilience layer is invisible when nothing fails);
- degradation is graceful — even at the highest swept rate, the run
  completes, every attempt is accounted for, and EX stays within a
  sane band of the baseline because retries absorb the error faults.
"""

from repro.eval.report import format_records
from repro.harness.benchjson import measure_chaos_degradation
from repro.harness.runner import run_hqdl, run_udf

#: One database keeps the sweep to a few seconds; the committed artifact
#: (`python -m repro.harness artifacts chaos`) is the full-benchmark one.
DATABASES = ["superhero"]
FAULT_RATES = (0.0, 0.1, 0.3, 0.5)
MODEL = "gpt-3.5-turbo"


def test_chaos_degradation_sweep(swan, gold, show):
    payload = measure_chaos_degradation(
        swan,
        model_name=MODEL,
        fault_rates=FAULT_RATES,
        databases=DATABASES,
    )
    points = payload["points"]
    show(format_records(
        [
            {
                "pipeline": p["pipeline"],
                "fault_rate": p["fault_rate"],
                "ex": p["ex"],
                "f1": p["f1"] if p["f1"] is not None else "-",
                "vs baseline": p["ex_recovered_vs_baseline"],
                "attempts": p["attempts"],
                "retries": p["retries"],
                "exhausted": p["exhausted"],
                "degraded rows": p["degraded_rows"],
            }
            for p in points
        ],
        title=f"EX/F1 vs fault rate ({MODEL}, {DATABASES[0]}, retries on).",
    ))

    # rate-0 anchors: chaos EX equals the plain runners' EX exactly
    udf_base = run_udf(swan, MODEL, 0, databases=DATABASES, gold=gold)
    hqdl_base = run_hqdl(swan, MODEL, 0, databases=DATABASES, gold=gold)
    by_key = {(p["pipeline"], p["fault_rate"]): p for p in points}
    assert by_key[("udf", 0.0)]["ex"] == round(udf_base.overall_ex, 4)
    assert by_key[("hqdl", 0.0)]["ex"] == round(hqdl_base.overall_ex, 4)
    assert by_key[("hqdl", 0.0)]["f1"] == round(hqdl_base.average_f1, 4)

    # every point's attempt ledger balances
    assert all(p["accounted"] for p in points)

    # degradation is monotone-ish, not catastrophic: retries keep the
    # mixed plan (20% corruption) above half the baseline even at 0.5
    for pipeline in ("udf", "hqdl"):
        worst = by_key[(pipeline, 0.5)]
        assert worst["ex_recovered_vs_baseline"] >= 0.5, worst

    # retries actually happened once faults were flowing
    assert by_key[("udf", 0.3)]["retries"] > 0
