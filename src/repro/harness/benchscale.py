"""Rows-vs-makespan scaling bench (``BENCH_scale.json``).

For each scale factor (1/10/100 by default) this bench:

1. synthesizes the scaled world (:mod:`repro.swan.scale`) for one
   database and a small fixed question subset;
2. runs both pipelines traced on one thread (a sequential virtual
   timeline), recording EX, tokens, the per-stage self-time breakdown
   and :func:`~repro.vtime.parallel_makespan` of the paid calls — the
   rows-vs-makespan curve;
3. wall-clock times the UDF pipeline (timed twice, minimum kept);
4. covers all four SWAN worlds with a traced (virtual clock) UDF+HQDL
   run per scale rung (capped at :data:`WORLD_SCALE_CAP`) over a small
   per-world question subset, so no world's operator mix is a scaling
   blind spot.

``python -m repro.harness artifacts scale`` writes ``BENCH_scale.json``
without the wall seconds, which it prints; ``bench-scale [--scale=N]``
only prints.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.errors import ReproError
from repro.llm.parallel import SimulatedLatencyClient
from repro.obs import Telemetry
from repro.obs.export import stage_summary
from repro.swan.benchmark import Swan, load_benchmark_subset
from repro.vtime import ServiceTimer, parallel_makespan

#: The canonical scale ladder; ``--scale=N`` keeps the rungs <= N.
DEFAULT_SCALES = (1, 10, 100)

#: Bench defaults: one database and a small question subset keep the
#: scale-100 rung minutes, not hours, while still exercising every
#: pipeline stage.  ``shots=2`` matters: few-shot selection is one of
#: the per-key hot paths, so the timed runs must include it.
BENCH_DATABASE = "superhero"
BENCH_SHOTS = 2

#: Questions chosen to cover both scaling shapes: q12 is a full-scan
#: LLMMap whose key count (and call count) multiplies with scale, while
#: q10/q16 push their predicates down to a single key at any scale.
#: All three are answered correctly at scale 1; EX may drift at higher
#: scales as replicated long-tail entities draw fresh deterministic
#: knowledge noise — that drift is model behaviour, not a scaling bug.
BENCH_QUESTION_IDS = ("superhero_q10", "superhero_q12", "superhero_q16")

#: Per-world question subsets for the all-worlds coverage section: three
#: questions spread across each world's list, so every SWAN world's
#: schema and operator mix contributes a rows-vs-makespan point (the
#: deep-dive rungs above stay on ``BENCH_DATABASE``).
WORLD_QUESTION_IDS = {
    "california_schools": (
        "california_schools_q01",
        "california_schools_q11",
        "california_schools_q21",
    ),
    "superhero": BENCH_QUESTION_IDS,
    "formula_1": ("formula_1_q01", "formula_1_q11", "formula_1_q21"),
    "european_football": (
        "european_football_q01",
        "european_football_q11",
        "european_football_q21",
    ),
}

#: The all-worlds section is virtual-clock only and capped at this scale
#: (wall-clock timing and the 100x rung stay on the single deep-dive
#: database, keeping the default bench minutes, not hours).
WORLD_SCALE_CAP = 10


def scales_up_to(scale: int) -> tuple[int, ...]:
    """The default scale rungs capped at ``scale`` (always includes 1)."""
    if scale < 1:
        raise ReproError(f"scale must be >= 1, got {scale}")
    rungs = [s for s in DEFAULT_SCALES if s <= scale]
    if scale not in rungs:
        rungs.append(scale)
    return tuple(rungs)


def _bench_swan(
    scale: int, database: str, question_ids: Sequence[str]
) -> Swan:
    swan = load_benchmark_subset(scale, [database])
    questions = [swan.question(qid) for qid in question_ids]
    return Swan(worlds=swan.worlds, questions=questions)


def _run_traced(swan: Swan, pipeline: str, *, model_name: str, shots: int,
                workers: int, batch_size: int) -> dict:
    """One pipeline run on one thread and a virtual clock; returns its
    payload record, the paid calls scheduled over ``workers``."""
    from repro.harness.runner import GoldResults, run_hqdl, run_udf

    clock = ServiceTimer()
    telemetry = Telemetry.on(clock)
    gold = GoldResults(swan)
    wrap = lambda model: SimulatedLatencyClient(model, clock)  # noqa: E731
    if pipeline == "udf":
        run = run_udf(
            swan, model_name, shots, gold=gold,
            batch_size=batch_size, wrap_client=wrap, telemetry=telemetry,
        )
    else:
        run = run_hqdl(
            swan, model_name, shots, gold=gold,
            wrap_client=wrap, telemetry=telemetry,
        )
    usage = run.usage
    return {
        "ex": round(run.overall_ex, 4),
        "makespan_seconds": round(parallel_makespan(run.call_sizes, workers), 4),
        "llm_calls": usage.calls,
        "input_tokens": usage.input_tokens,
        "output_tokens": usage.output_tokens,
        "stages": stage_summary(telemetry.tracer.roots),
    }


def _run_wall(swan: Swan, *, model_name: str, shots: int, workers: int,
              batch_size: int) -> float:
    """An untraced UDF run's wall-clock seconds.

    Wall noise: the better of two runs is kept.
    """
    from repro.harness.runner import GoldResults, run_udf

    gold = GoldResults(swan)
    best = None
    for _ in range(2):
        start = time.perf_counter()
        run_udf(
            swan, model_name, shots, workers=workers, gold=gold,
            batch_size=batch_size,
        )
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best


def measure_worlds(
    *,
    model_name: str = "gpt-3.5-turbo",
    shots: int = BENCH_SHOTS,
    workers: int = 4,
    batch_size: int = 5,
    scales: Sequence[int] = DEFAULT_SCALES,
) -> dict:
    """Virtual-clock coverage of all four SWAN worlds.

    One traced UDF+HQDL run per (world, rung) over that world's
    three-question subset; rungs above :data:`WORLD_SCALE_CAP` are
    skipped here (the deep-dive section covers them on one database).
    """
    rungs = tuple(s for s in scales if s <= WORLD_SCALE_CAP) or (1,)
    worlds: dict = {}
    for database, question_ids in WORLD_QUESTION_IDS.items():
        entry: dict = {"question_ids": list(question_ids), "scales": {}}
        for scale in rungs:
            swan = _bench_swan(scale, database, question_ids)
            world = swan.worlds[database]
            entry["scales"][str(scale)] = {
                "scale": scale,
                "curated_rows": sum(
                    len(rows) for rows in world.curated_rows.values()
                ),
                "pipelines": {
                    pipeline: _run_traced(
                        swan, pipeline, model_name=model_name, shots=shots,
                        workers=workers, batch_size=batch_size,
                    )
                    for pipeline in ("udf", "hqdl")
                },
            }
        worlds[database] = entry
    return worlds


def measure_scale(
    *,
    model_name: str = "gpt-3.5-turbo",
    shots: int = BENCH_SHOTS,
    workers: int = 4,
    batch_size: int = 5,
    database: str = BENCH_DATABASE,
    question_ids: Sequence[str] = BENCH_QUESTION_IDS,
    scales: Sequence[int] = DEFAULT_SCALES,
) -> dict:
    """The BENCH_scale payload: one entry per scale rung."""
    payload: dict = {
        "bench": "scale",
        "model": model_name,
        "shots": shots,
        "workers": workers,
        "batch_size": batch_size,
        "database": database,
        "question_ids": [],
        "world_scale_cap": WORLD_SCALE_CAP,
        "scales": {},
        "worlds": measure_worlds(
            model_name=model_name, shots=shots, workers=workers,
            batch_size=batch_size, scales=scales,
        ),
    }
    config = dict(
        model_name=model_name, shots=shots, workers=workers,
        batch_size=batch_size,
    )
    for scale in scales:
        swan = _bench_swan(scale, database, question_ids)
        payload["question_ids"] = [q.qid for q in swan.questions]
        world = swan.worlds[database]
        entry: dict = {
            "scale": scale,
            "original_rows": sum(
                len(rows) for rows in world.original_rows.values()
            ),
            "curated_rows": sum(
                len(rows) for rows in world.curated_rows.values()
            ),
            "pipelines": {},
        }
        for pipeline in ("udf", "hqdl"):
            entry["pipelines"][pipeline] = _run_traced(swan, pipeline, **config)
        entry["wall"] = {
            "threads_seconds": round(_run_wall(swan, **config), 4),
        }
        payload["scales"][str(scale)] = entry
    return payload


def format_scale_report(payload: dict) -> str:
    """Console rendering: the rows-vs-makespan curve plus wall seconds."""
    from repro.eval.report import format_table

    rows = []
    for entry in payload["scales"].values():
        udf = entry["pipelines"]["udf"]
        hqdl = entry["pipelines"]["hqdl"]
        wall = entry["wall"]
        rows.append(
            [
                f"{entry['scale']}x",
                entry["curated_rows"],
                f"{udf['makespan_seconds']:.1f} s",
                f"{udf['ex'] * 100:.1f}%",
                udf["llm_calls"],
                f"{hqdl['makespan_seconds']:.1f} s",
                f"{wall['threads_seconds']:.2f} s",
            ]
        )
    world_rows = []
    for database, entry in payload.get("worlds", {}).items():
        for rung in entry["scales"].values():
            udf = rung["pipelines"]["udf"]
            hqdl = rung["pipelines"]["hqdl"]
            world_rows.append(
                [
                    database,
                    f"{rung['scale']}x",
                    rung["curated_rows"],
                    f"{udf['makespan_seconds']:.1f} s",
                    f"{udf['ex'] * 100:.1f}%",
                    udf["llm_calls"],
                    f"{hqdl['makespan_seconds']:.1f} s",
                    f"{hqdl['ex'] * 100:.1f}%",
                ]
            )
    title = (
        f"Rows vs makespan on `{payload['database']}` "
        f"({payload['model']}, {payload['shots']}-shot, "
        f"workers={payload['workers']}; virtual makespans, wall-clock "
        "UDF seconds)."
    )
    text = format_table(
        [
            "Scale", "Rows", "UDF makespan", "UDF EX", "UDF calls",
            "HQDL makespan", "UDF wall threads",
        ],
        rows,
        title=title,
    )
    if world_rows:
        text += "\n\n" + format_table(
            [
                "World", "Scale", "Rows", "UDF makespan", "UDF EX",
                "UDF calls", "HQDL makespan", "HQDL EX",
            ],
            world_rows,
            title=(
                "All four SWAN worlds on the virtual clock "
                f"(rungs capped at {payload.get('world_scale_cap', '?')}x; "
                "three questions per world)."
            ),
        )
    return text
