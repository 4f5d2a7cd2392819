"""``BENCHMARK.json`` and what the workloads really emit must agree."""

import json
import re
from pathlib import Path
from time import perf_counter

import pytest

import run
import workloads as wl

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["perfbench"]
    assert sorted(run.workload_names(CONTRACT)) == sorted(wl.WORKLOADS)
    assert len(CONTRACT["workloads"]) == 4
    assert len(CONTRACT["end_to_end"]) == 7
    assert len(CONTRACT["per_layer"]) == 71
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def _small(tmp_path: Path) -> list:
    """Every workload class and mode, shrunk to seconds."""

    def scratch(name: str) -> Path:
        (tmp_path / name).mkdir()
        return tmp_path / name

    return [
        wl.BatchWorkload("udf_cold", 0, scratch("a"), pipeline="udf", scale=1),
        wl.BatchWorkload("hqdl_cold", 0, scratch("b"), pipeline="hqdl", scale=1),
        wl.BatchWorkload(
            "udf_warm", 0, scratch("c"), pipeline="udf", scale=1, warm=True
        ),
        wl.ServeWorkload(
            "serve_overload", 0, scratch("d"), rate=1.6, seeds_per_round=1,
            horizon=60.0,
        ),
    ]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    workloads = _small(tmp_path_factory.mktemp("perfbench"))
    return [run.measure(w, 0.0, True, perf_counter()) for w in workloads]


def test_small_runs_pass_their_own_checks(results):
    for result in results:
        assert result["failures"] == [], result["workload"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert len(result["wall_samples"]) == run.MIN_PASSES


def test_every_workload_emits_every_end_to_end_metric_and_none_is_zero(results):
    listed = [m["name"] for m in CONTRACT["end_to_end"]]
    for result in results:
        assert sorted(result["end_to_end"]) == sorted(listed)
        assert all(result["end_to_end"][name] > 0 for name in listed)
        line = json.loads(run.result_line({**result, "traced": False}, CONTRACT))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == listed


def test_per_layer_names_are_exactly_what_the_workloads_produce(results):
    produced = set().union(*(result["per_layer"] for result in results))
    assert produced == {m["name"] for m in CONTRACT["per_layer"]}
    for result in results:
        line = json.loads(run.result_line(result, CONTRACT))
        assert len(line["metrics"]) == len(CONTRACT["per_layer"])


def test_predicted_separations(results):
    udf_cold, hqdl_cold, udf_warm, overload = (r["per_layer"] for r in results)
    assert udf_cold["llm.model_calls"] > 0 and udf_cold["udf.execute_s"] > 0
    assert hqdl_cold["udf.execute_s"] == 0 and "udf.llm_calls" not in hqdl_cold
    assert hqdl_cold["sqlparser.parse_s"] == 0
    assert udf_warm["llm.model_calls"] == 0 and udf_warm["llm.disk_hits"] > 0
    assert udf_warm["llm.disk_misses"] == 0
    assert overload["serve.shed"] > 0
    for layer in (udf_cold, hqdl_cold):
        assert layer["harness.unattributed_s"] >= 0
        assert layer["harness.trace_overhead_ratio"] > 0


def test_span_table_closes_with_unattributed(results):
    for result in results:
        assert result["span_table"][-1]["name"] == "(unattributed)"
        assert result["spans"][0]["parent"] is None
