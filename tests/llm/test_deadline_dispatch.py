"""Deadline propagation through dispatch and the pipelines.

The serving layer hands each request a
:class:`~repro.llm.resilience.Deadline`; the contract tested here is
that expired work is *skipped with a typed outcome* — never silently
dispatched, never an untyped crash — at every layer: the
ParallelDispatcher, the model's batch completion, the UDF executor, and
the HQDL pipeline.
"""

import pytest

from repro.errors import DeadlineExceededError
from repro.llm.chat import ChatResponse
from repro.llm.parallel import ParallelDispatcher
from repro.llm.resilience import Deadline
from repro.llm.usage import Usage, UsageMeter
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from tests.conftest import make_model


class FakeClock:
    def __init__(self):
        self._now = 0.0

    def now(self):
        return self._now

    def sleep(self, seconds):
        self._now += seconds


class CountingClient:
    """A stub client that records how many prompts actually reached it."""

    model_name = "stub"

    def __init__(self):
        self.calls = 0
        self.meter = UsageMeter()

    def complete(self, prompt, *, label=""):
        self.calls += 1
        return ChatResponse(text="ok", usage=Usage(1, 1, 1))


def _expired_deadline():
    clock = FakeClock()
    deadline = Deadline(0.5, clock)
    clock.sleep(1.0)
    assert deadline.expired
    return deadline


class TestDispatcherDeadline:
    def test_expired_work_is_skipped_with_a_typed_outcome(self):
        client = CountingClient()
        outcomes = ParallelDispatcher(workers=2).dispatch(
            client,
            ["a", "b", "c"],
            labels="map",
            deadline=_expired_deadline(),
        )
        assert client.calls == 0, "expired prompts must never be dispatched"
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome.error, DeadlineExceededError)
            assert outcome.degradable, "deadline skips must degrade to NULL"

    def test_live_deadline_dispatches_normally(self):
        client = CountingClient()
        clock = FakeClock()
        outcomes = ParallelDispatcher(workers=2).dispatch(
            client, ["a", "b"], labels="map", deadline=Deadline(60.0, clock)
        )
        assert client.calls == 2
        assert all(o.error is None for o in outcomes)


class TestExecutorDeadline:
    @pytest.fixture()
    def executor(self, superhero_world):
        db = build_curated_database(superhero_world)
        model = make_model(superhero_world)
        executor = HybridQueryExecutor(
            db, model, superhero_world, workers=2
        )
        executor.model_meter = model.meter
        yield executor
        db.close()

    SQL = (
        "SELECT superhero_name FROM superhero WHERE "
        "{{LLMMap('Which comic book publisher published this superhero?', "
        "'superhero::superhero_name', 'superhero::full_name')}} "
        "= 'Dark Horse Comics'"
    )

    @staticmethod
    def _execute(executor, deadline):
        plan = executor.prepare(TestExecutorDeadline.SQL)
        return executor.run(plan, executor.generate(plan, deadline=deadline))

    def test_expired_deadline_degrades_every_cell(self, executor):
        result, report = self._execute(executor, _expired_deadline())
        assert executor.model_meter.total.calls == 0
        assert result.rows == [], "every mapped cell degraded to NULL"
        assert report.degraded_keys > 0

    def test_generous_deadline_changes_nothing(self, executor):
        clock = FakeClock()
        baseline_result, baseline = executor.execute_with_report(self.SQL)
        executor.cache.clear()
        result, report = self._execute(executor, Deadline(10_000.0, clock))
        assert result.rows == baseline_result.rows
        assert report.call_sizes == baseline.call_sizes
        assert report.degraded_keys == baseline.degraded_keys == 0


class TestHqdlDeadline:
    def test_expired_deadline_generates_null_cells_without_calls(
        self, superhero_world
    ):
        from repro.core.hqdl import HQDL

        model = make_model(superhero_world)
        pipeline = HQDL(superhero_world, model, workers=2)
        generation = pipeline.generate_all(deadline=_expired_deadline())
        assert model.meter.total.calls == 0
        assert generation, "generation still completes, just degraded"
