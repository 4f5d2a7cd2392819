"""Tests for the rows-vs-makespan scaling bench (`repro.harness.benchscale`)."""

import pytest

from repro.errors import ReproError
from repro.harness.benchscale import (
    BENCH_DATABASE,
    BENCH_QUESTION_IDS,
    BENCH_SHOTS,
    format_scale_report,
    measure_scale,
    scales_up_to,
)
from repro.harness.runner import run_hqdl, run_udf
from repro.swan.benchmark import Swan, load_benchmark_subset
from repro.vtime import parallel_makespan


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
        assert set(wall) == {"threads_seconds"}
        assert wall["threads_seconds"] > 0

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


class _SizeRecorder:
    """Passes calls through to the model; records the paid ones' sizes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.sizes: list[tuple[int, int]] = []

    def complete(self, prompt, *, label=""):
        response = self.inner.complete(prompt, label=label)
        if response.usage.calls:
            self.sizes.append(
                (response.usage.input_tokens, response.usage.output_tokens)
            )
        return response


def _without_wall(payload: dict) -> dict:
    return {
        **payload,
        "scales": {
            rung: {k: v for k, v in entry.items() if k != "wall"}
            for rung, entry in payload["scales"].items()
        },
    }


class TestVirtualTimeIsReproducible:
    """Makespans are a function of the paid call sizes, never of which
    thread ran first: two runs agree, the stages tile one sequential
    timeline, and each makespan schedules exactly the calls the model
    was paid for."""

    WORKERS = 4

    @pytest.fixture(scope="class")
    def payloads(self):
        config = dict(
            scales=(1,), database=BENCH_DATABASE, workers=self.WORKERS
        )
        return measure_scale(**config), measure_scale(**config)

    @pytest.fixture(scope="class")
    def paid(self):
        """Per pipeline: the run and the sizes recorded below its caches."""
        swan = load_benchmark_subset(1, [BENCH_DATABASE])
        swan = Swan(
            worlds=swan.worlds,
            questions=[swan.question(qid) for qid in BENCH_QUESTION_IDS],
        )
        result = {}
        for name, runner in (("udf", run_udf), ("hqdl", run_hqdl)):
            recorders = []

            def wrap(model):
                recorders.append(_SizeRecorder(model))
                return recorders[-1]

            run = runner(
                swan, "gpt-3.5-turbo", BENCH_SHOTS, wrap_client=wrap
            )
            result[name] = (
                run, [size for r in recorders for size in r.sizes]
            )
        return result

    def test_two_runs_write_equal_payloads(self, payloads):
        first, second = payloads
        assert _without_wall(first) == _without_wall(second)

    def test_every_stage_share_is_at_most_one(self, payloads):
        first, _ = payloads
        sections = list(first["scales"].values()) + [
            rung
            for entry in first["worlds"].values()
            for rung in entry["scales"].values()
        ]
        for section in sections:
            for record in section["pipelines"].values():
                for stage in record["stages"]:
                    assert stage["share"] <= 1, stage

    def test_makespan_schedules_the_paid_calls(self, payloads, paid):
        first, _ = payloads
        for name, (_, sizes) in paid.items():
            record = first["scales"]["1"]["pipelines"][name]
            assert record["makespan_seconds"] == round(
                parallel_makespan(sizes, self.WORKERS), 4
            )

    def test_hqdl_run_reports_the_sizes_paid_below_the_caches(self, paid):
        run, sizes = paid["hqdl"]
        assert sizes, "the model was never paid"
        assert run.call_sizes == sizes
