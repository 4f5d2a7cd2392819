"""Seed -> inputs: the same seed gives the same inputs, another seed others."""

import json
from pathlib import Path

from repro.swan import load_benchmark

import workloads as wl


def _qids(seed: int) -> list[str]:
    return [q.qid for q in wl.draw_questions(load_benchmark(1), seed).questions]


def test_question_subset_is_a_function_of_the_seed():
    assert _qids(3) == _qids(3)
    assert _qids(3) != _qids(4)
    swan = load_benchmark(1)
    subset = wl.draw_questions(swan, 3)
    for name in swan.database_names():
        assert len(subset.questions_for(name)) == wl.QUESTIONS_PER_DB
    assert subset.worlds is swan.worlds


def _traffic_digest(seed: int, tmp_path: Path) -> str:
    workload = wl.ServeWorkload(
        "t", seed, tmp_path, rate=0.2, seeds_per_round=2, horizon=120.0
    )
    workload.prepare()
    return json.dumps([
        [(r.tenant, r.database, r.qid, r.pipeline, r.arrival) for r in requests]
        for requests in workload.traffic
    ])


def test_traffic_is_a_function_of_the_seed(tmp_path):
    assert _traffic_digest(1, tmp_path) == _traffic_digest(1, tmp_path)
    assert _traffic_digest(1, tmp_path) != _traffic_digest(2, tmp_path)
