"""HQDL's three stages equal its batch views, and report what they pay.

``run(plan, generate(plan))`` must answer every question exactly as
``answer(build_expanded_database(generate_all()), question)`` does; the
first question's plan carries the whole generation and every later one
is empty; and the paid-call sizes ``generate`` reports are exactly the
ones a pass-through client under the caches sees, faults included.
"""

import pytest

from repro.core.hqdl import HQDL
from repro.llm.cache import CachingClient, PromptCache
from repro.llm.faults import FaultPlan
from repro.llm.resilience import ResilienceReport, RetryPolicy
from repro.llm.stack import build_client_stack, build_resilient_stack
from repro.swan.benchmark import load_benchmark_subset

from tests.conftest import make_model

PROFILE = "gpt-3.5-turbo"


def _staged_equals_batch(world, questions):
    batch = HQDL(world, make_model(world, PROFILE))
    staged = HQDL(world, make_model(world, PROFILE))
    try:
        with batch.build_expanded_database(batch.generate_all()) as db:
            for index, question in enumerate(questions):
                plan = staged.prepare(question)
                assert bool(plan.work()) == (index == 0), question.qid
                fillings = staged.generate(plan)
                result, report = staged.run(plan, fillings)
                assert result.rows == batch.answer(db, question).rows, question.qid
                assert report.llm_calls == len(report.call_sizes)
                assert (report.llm_calls > 0) == (index == 0), question.qid
    finally:
        staged.close()


class TestStagedEqualsBatch:
    @pytest.mark.parametrize(
        "database",
        ["california_schools", "superhero", "formula_1", "european_football"],
    )
    def test_every_question_at_scale_1(self, swan, database):
        _staged_equals_batch(swan.world(database), swan.questions_for(database))

    def test_superhero_at_scale_10(self):
        swan = load_benchmark_subset(10, ["superhero"])
        _staged_equals_batch(swan.world("superhero"), swan.questions_for("superhero"))


class TestResident:
    def test_resident_database_empties_the_work(self, swan, superhero_world):
        model = make_model(superhero_world)
        pipeline = HQDL(superhero_world, model)
        first, *rest = swan.questions_for("superhero")[:3]
        try:
            pipeline.execute_with_report(first)
            paid = model.meter.total
            for question in rest:
                plan = pipeline.prepare(question)
                assert plan.work() == ()
                fillings = pipeline.generate(plan)
                assert fillings.report.llm_calls == 0
                assert fillings.report.call_sizes == []
                pipeline.run(plan, fillings)
            assert pipeline.plan_calls() == []
            assert model.meter.total == paid
        finally:
            pipeline.close()
        assert pipeline.db is None

    def test_plan_outliving_residency_pays_nothing(self, swan, superhero_world):
        model = make_model(superhero_world)
        pipeline = HQDL(superhero_world, model)
        first, second = swan.questions_for("superhero")[:2]
        try:
            early = pipeline.prepare(second)  # prepared before the first run
            pipeline.execute_with_report(first)
            paid = model.meter.total
            fillings = pipeline.generate(early)
            assert fillings.report.llm_calls == 0
            pipeline.run(early, fillings)
            assert model.meter.total == paid
        finally:
            pipeline.close()


class _SizeRecorder:
    """Pass-through client recording the sizes of the calls reaching it."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.sizes = []

    def _record(self, response):
        if response.usage.calls:
            usage = response.usage
            self.sizes.append((usage.input_tokens, usage.output_tokens))
        return response

    def complete(self, prompt, *, label=""):
        return self._record(self.inner.complete(prompt, label=label))


class TestReportedSizes:
    @pytest.mark.parametrize("fault_rate", [0.0, 0.2])
    def test_call_sizes_equal_what_reaches_the_model(
        self, swan, superhero_world, fault_rate
    ):
        resilience = ResilienceReport()
        recorders = []

        def wrap(model):
            inner = model
            if fault_rate > 0:
                inner = build_resilient_stack(
                    model,
                    plan=FaultPlan.uniform(fault_rate, seed=0),
                    policy=RetryPolicy(max_attempts=2, seed=0),
                    report=resilience,
                )
            recorders.append(_SizeRecorder(inner))
            return recorders[-1]

        stack = build_client_stack(superhero_world, PROFILE, shots=0, wrap=wrap)
        client = CachingClient(stack.client, PromptCache())
        (recorder,) = recorders
        question = swan.questions_for("superhero")[0]
        # the second pipeline shares the prompt cache: it pays only for
        # the rows whose calls failed the first time
        for _ in range(2):
            pipeline = HQDL(superhero_world, client, resilience=resilience)
            mark = len(recorder.sizes)
            plan = pipeline.prepare(question)
            report = pipeline.generate(plan).report
            assert report.call_sizes == recorder.sizes[mark:]
            assert report.llm_calls == len(report.call_sizes)
        assert recorder.sizes
        if fault_rate > 0:
            assert resilience.retries > 0
            assert resilience.degraded_rows > 0
            assert report.call_sizes, "the retry pass paid for failed rows"
        else:
            assert report.call_sizes == [], "everything was cached"
