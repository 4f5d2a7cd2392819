"""Future work — asynchronous / parallel LLM calls (Sections 4.3 and 6).

"BlendSQL ... plans to support parallelized LLM calls in the future to
further minimize query latency."  This bench prints the analytical
estimate, then re-runs the same full-scan hybrid query on the real
dispatcher with ``workers=4`` / ``workers=16``.  Each threaded run must
pay exactly the sequential run's calls (the bench raises otherwise), so
its makespan — :func:`~repro.vtime.parallel_makespan` of the calls it
paid — equals the analytical LPT figure.
"""

import pytest

from repro.eval.report import format_table
from repro.harness.benchjson import PLAYER_HEIGHT_QUERY, measure_parallel_makespans
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor

QUERY = PLAYER_HEIGHT_QUERY

WORKERS = (1, 4, 16)


@pytest.fixture(scope="module")
def report(swan):
    from repro.llm.chat import MockChatModel
    from repro.llm.oracle import KnowledgeOracle
    from repro.llm.profiles import get_profile

    world = swan.world("european_football")
    model = MockChatModel(KnowledgeOracle(world), get_profile("perfect"))
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, model, world)
        _, execution_report = executor.execute_with_report(QUERY)
    return execution_report


def test_future_parallel_execution(benchmark, report, show):
    latencies = benchmark.pedantic(
        lambda: {w: report.estimated_latency(workers=w) for w in WORKERS},
        rounds=3,
        iterations=1,
    )
    rows = [
        [workers, f"{latencies[workers]:.1f} s",
         f"{latencies[1] / latencies[workers]:.1f}x"]
        for workers in WORKERS
    ]
    show(format_table(
        ["Workers", "Estimated latency", "Speedup"],
        rows,
        title=f"Future work: parallel LLM calls over {report.llm_calls} "
              "batched requests (full player scan).",
    ))

    # parallelism helps and approaches the per-worker bound
    assert latencies[4] < latencies[1]
    assert latencies[16] <= latencies[4]
    assert latencies[1] / latencies[4] > 2.0  # near-linear at low counts


def test_measured_makespan_matches_analytical_bound(swan, show):
    """Threaded runs pay the sequential calls, so their makespan is the
    LPT figure exactly."""
    payload = measure_parallel_makespans(swan)
    rows = [["1 (sequential)", f"{payload['sequential_seconds']:.1f} s", "-", "-"]]
    for workers, entry in payload["workers"].items():
        rows.append(
            [
                workers,
                f"{entry['measured_seconds']:.1f} s",
                f"{entry['analytical_seconds']:.1f} s",
                entry["max_in_flight"],
            ]
        )
        assert entry["measured_seconds"] == entry["analytical_seconds"]
    show(format_table(
        ["Workers", "Measured makespan", "Analytical (LPT)", "Max in flight"],
        rows,
        title=f"Measured scheduler makespan vs analytical bound "
              f"({payload['llm_calls']} batched calls, virtual time).",
    ))
    # and parallelism genuinely pays off
    four = payload["workers"]["4"]
    assert four["measured_seconds"] < payload["sequential_seconds"] / 2
