"""Tests for the rows-vs-makespan scaling bench (`repro.harness.benchscale`)."""

import json

import pytest

from repro.errors import ReproError
from repro.harness.benchscale import (
    BENCH_QUESTION_IDS,
    format_scale_report,
    measure_scale,
    scales_up_to,
    write_scale_json,
)


class TestScalesUpTo:
    def test_caps_the_default_ladder(self):
        assert scales_up_to(1) == (1,)
        assert scales_up_to(10) == (1, 10)
        assert scales_up_to(100) == (1, 10, 100)

    def test_appends_a_nonstandard_rung(self):
        assert scales_up_to(5) == (1, 5)
        assert scales_up_to(42) == (1, 10, 42)

    def test_rejects_nonpositive(self):
        with pytest.raises(ReproError, match="scale must be >= 1"):
            scales_up_to(0)


class TestMeasureScale:
    @pytest.fixture(scope="class")
    def payload(self):
        return measure_scale(scales=(1,))

    def test_payload_shape(self, payload):
        assert payload["bench"] == "scale"
        assert payload["question_ids"] == list(BENCH_QUESTION_IDS)
        entry = payload["scales"]["1"]
        assert entry["scale"] == 1
        assert entry["original_rows"] > 0
        assert entry["curated_rows"] > 0
        for pipeline in ("udf", "hqdl"):
            record = entry["pipelines"][pipeline]
            assert record["makespan_seconds"] > 0
            assert record["llm_calls"] > 0
            assert record["stages"], "per-stage breakdown must be present"

    def test_wall_clock_speedups_recorded_and_identical(self, payload):
        wall = payload["scales"]["1"]["wall"]
        assert wall["identical"] is True
        assert set(wall) == {"threads_seconds", "processes_seconds", "identical"}
        for key in ("threads_seconds", "processes_seconds"):
            assert wall[key] > 0

    def test_covers_all_four_swan_worlds(self, payload):
        from repro.swan.benchmark import DATABASE_ORDER

        worlds = payload["worlds"]
        assert set(worlds) == set(DATABASE_ORDER)
        for database, entry in worlds.items():
            assert len(entry["question_ids"]) == 3
            assert all(q.startswith(database) for q in entry["question_ids"])
            rung = entry["scales"]["1"]
            assert rung["curated_rows"] > 0
            for pipeline in ("udf", "hqdl"):
                record = rung["pipelines"][pipeline]
                assert record["makespan_seconds"] > 0
                assert record["llm_calls"] > 0

    def test_world_rungs_respect_the_cap(self, payload):
        from repro.harness.benchscale import WORLD_SCALE_CAP

        assert payload["world_scale_cap"] == WORLD_SCALE_CAP
        for entry in payload["worlds"].values():
            assert all(
                int(scale) <= WORLD_SCALE_CAP for scale in entry["scales"]
            )

    def test_report_renders(self, payload):
        text = format_scale_report(payload)
        assert "Rows vs makespan" in text
        assert "1x" in text
        assert "All four SWAN worlds" in text
        assert "european_football" in text

    def test_write_scale_json(self, tmp_path):
        path, payload = write_scale_json(
            tmp_path / "BENCH_scale.json", scales=(1,)
        )
        assert path.exists()
        assert json.loads(path.read_text()) == payload
