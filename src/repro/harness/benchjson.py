"""The parallel-dispatch and chaos benches (``BENCH_parallel.json``,
``BENCH_chaos.json``).

The parallel-execution story used to be a formula printout; now that the
dispatcher is real, this module *measures* it — driving the reference
full-scan hybrid query through :class:`~repro.udf.executor.
HybridQueryExecutor` under a :class:`~repro.llm.parallel.SimulatedClock`
(virtual time, zero real sleeping) and recording the scheduler's actual
makespan next to the analytical :func:`~repro.llm.batching.
parallel_makespan` bound.  The JSON payload gives CI a stable,
machine-readable trajectory of sequential-vs-parallel latency across
PRs.

Entry point: ``python -m repro.harness artifacts parallel chaos``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eval.report import format_table
from repro.llm.batching import LatencyModel, parallel_makespan, sequential_makespan
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.parallel import SimulatedClock, SimulatedLatencyClient
from repro.llm.profiles import get_profile
from repro.obs import MetricsRegistry, Telemetry
from repro.swan.benchmark import Swan, load_benchmark
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor

#: The reference query: a full player scan, the paper's worst-case LLM
#: traffic (every distinct player reaches the model, batched 5 per call).
PLAYER_HEIGHT_QUERY = (
    "SELECT COUNT(*) FROM player WHERE "
    "CAST({{LLMMap('What is the height in centimeters of this football "
    "player?', 'player::player_name')}} AS INTEGER) > 180"
)

#: Worker counts measured alongside the analytical bound.
DEFAULT_WORKER_COUNTS = (4, 16)


def measure_parallel_makespans(
    swan: Optional[Swan] = None,
    *,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    model_name: str = "perfect",
    database: str = "european_football",
    query: str = PLAYER_HEIGHT_QUERY,
    latency_model: Optional[LatencyModel] = None,
) -> dict:
    """Measured vs analytical makespans for the reference hybrid query.

    One sequential execution collects the per-call token sizes that feed
    the analytical model; then, per worker count, a fresh executor runs
    the same query with a real dispatcher whose paid calls advance a
    simulated clock — the measured makespan is the virtual finish time
    of the actual schedule.
    """
    swan = swan if swan is not None else load_benchmark()
    world = swan.world(database)
    profile = get_profile(model_name)
    latency_model = latency_model if latency_model is not None else LatencyModel()

    with build_curated_database(world) as db:
        model = MockChatModel(KnowledgeOracle(world), profile)
        executor = HybridQueryExecutor(db, model, world)
        _, report = executor.execute_with_report(query)
    sequential_seconds = sequential_makespan(report.call_sizes, latency_model)

    workers_payload: dict[str, dict] = {}
    for workers in worker_counts:
        clock = SimulatedClock(workers)
        telemetry = Telemetry(metrics=MetricsRegistry())
        with build_curated_database(world) as db:
            model = MockChatModel(KnowledgeOracle(world), profile)
            client = SimulatedLatencyClient(model, clock, latency_model)
            executor = HybridQueryExecutor(
                db, client, world, workers=workers, telemetry=telemetry
            )
            executor.execute(query)
        measured = clock.makespan()
        analytical = parallel_makespan(report.call_sizes, workers, latency_model)
        metrics = telemetry.metrics.snapshot()
        workers_payload[str(workers)] = {
            "analytical_seconds": round(analytical, 4),
            "measured_seconds": round(measured, 4),
            "speedup_vs_sequential": round(
                sequential_seconds / measured if measured else 0.0, 2
            ),
            "cache_hits": metrics.get("llm.cache.hits", 0),
            "cache_misses": metrics.get("llm.cache.misses", 0),
            "single_flight_joins": metrics.get(
                "llm.cache.single_flight_joins", 0
            ),
            "max_in_flight": metrics.get("dispatch.in_flight.max", 0),
        }

    return {
        "bench": "parallel_dispatch",
        "database": database,
        "model": model_name,
        "query": query,
        "llm_calls": report.llm_calls,
        "sequential_seconds": round(sequential_seconds, 4),
        "workers": workers_payload,
    }


def format_parallel_report(payload: dict) -> str:
    """Console table of the measured and analytical makespans."""
    rows = [["1 (sequential)", f"{payload['sequential_seconds']:.1f} s", "-", "1.0x"]]
    for workers, entry in payload["workers"].items():
        rows.append(
            [
                workers,
                f"{entry['measured_seconds']:.1f} s",
                f"{entry['analytical_seconds']:.1f} s",
                f"{entry['speedup_vs_sequential']:.1f}x",
            ]
        )
    return format_table(
        ["Workers", "Measured", "Analytical", "Speedup"],
        rows,
        title=f"Parallel dispatch makespans over {payload['llm_calls']} "
              f"batched calls.",
    )


# -- chaos bench (BENCH_chaos.json) ------------------------------------------------

#: Fault intensities swept by the chaos bench; 0.0 anchors the
#: byte-identical baseline, the rest trace the degradation curve.
DEFAULT_FAULT_RATES = (0.0, 0.1, 0.3, 0.5)


def measure_chaos_degradation(
    swan: Optional[Swan] = None,
    *,
    model_name: str = "gpt-3.5-turbo",
    shots: int = 0,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    seed: int = 0,
    retries: bool = True,
    databases: Optional[Sequence[str]] = None,
) -> dict:
    """EX/F1 vs fault intensity for both pipelines, with attempt ledgers.

    Every backoff wait runs on a simulated clock, so the sweep is as fast
    as a normal run regardless of how many retries the faults provoke.
    The rate-0 point doubles as a regression anchor: its EX must equal
    the unwrapped pipelines' (asserted by the tier-1 chaos tests).
    """
    from repro.harness.runner import GoldResults, chaos_sweep

    swan = swan if swan is not None else load_benchmark()
    gold = GoldResults(swan)
    runs = chaos_sweep(
        swan, model_name, shots,
        fault_rates=fault_rates, seed=seed, retries=retries,
        databases=databases, gold=gold, with_metrics=True,
    )
    baseline = {
        run.pipeline: run.ex for run in runs if run.fault_rate == 0.0
    }
    points = []
    for run in runs:
        record = run.as_record()
        base = baseline.get(run.pipeline, 0.0)
        record["ex_recovered_vs_baseline"] = round(
            run.ex / base if base else 0.0, 4
        )
        record["accounted"] = run.resilience.is_accounted()
        points.append(record)
    return {
        "bench": "chaos",
        "model": model_name,
        "shots": shots,
        "seed": seed,
        "retries": retries,
        "fault_rates": [round(rate, 4) for rate in fault_rates],
        "databases": list(databases) if databases is not None else "all",
        "points": points,
    }


def format_chaos_report(payload: dict) -> str:
    """Console table of EX/F1 and the attempt ledger per fault rate."""
    rows = []
    for point in payload["points"]:
        rows.append(
            [
                point["pipeline"],
                f"{point['fault_rate'] * 100:.0f}%",
                f"{point['ex'] * 100:.1f}%",
                f"{point['f1'] * 100:.1f}%" if point["f1"] is not None else "-",
                f"{point['ex_recovered_vs_baseline'] * 100:.1f}%",
                point["attempts"],
                point["retries"],
                point["exhausted"],
                point["degraded_rows"],
                "yes" if point["accounted"] else "NO",
            ]
        )
    return format_table(
        ["Pipeline", "Fault rate", "EX", "F1", "EX vs baseline",
         "Attempts", "Retries", "Exhausted", "Degraded rows", "Accounted"],
        rows,
        title=f"SWAN under fault injection with retries={payload['retries']}.",
    )
