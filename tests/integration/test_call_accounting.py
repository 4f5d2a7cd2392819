"""Counting is conserved: every paid call is reported where it is paid.

A pass-through client placed directly around the model (under every
prompt cache) sees each call the model is paid for.  Whatever drives the
pipelines — a bare executor with or without a mapping store, the batch
runners with or without a call planner, the query server with or without
cross-request batching — must report exactly those calls (the server
reports its warm HQDL build in its startup record): the same count, and
for the executor and the UDF runner the same multiset of (input, output)
token sizes, LLMQA answers and rewrite equivalence checks included.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.harness.runner import run_hqdl, run_udf
from repro.plan import CallPlanner
from repro.serve.batcher import BatchingConfig
from repro.serve.request import QueryRequest
from repro.serve.server import QueryServer, ServerConfig
from repro.swan.benchmark import load_benchmark_subset
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.store import MappingStore

from tests.conftest import make_model

DATABASES = ("superhero", "european_football", "formula_1", "california_schools")
PROFILE = "gpt-3.5-turbo"


class CountingClient:
    """Passes every call through; records the sizes of the paid ones."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.sizes: list[tuple[int, int]] = []
        self._lock = threading.Lock()

    def complete(self, prompt, *, label=""):
        response = self.inner.complete(prompt, label=label)
        usage = response.usage
        if usage.calls:
            with self._lock:
                self.sizes.append((usage.input_tokens, usage.output_tokens))
        return response


def _counting_wrap():
    """A ``wrap_client`` hook and the counters it has built."""
    counters: list[CountingClient] = []

    def wrap(model):
        counters.append(CountingClient(model))
        return counters[-1]

    return wrap, counters


def _store(mode: str):
    if mode == "none":
        return None
    return MappingStore(rewrite=mode == "rewrite")


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("store", ["none", "plain", "rewrite"])
@pytest.mark.parametrize("database", DATABASES)
def test_executor_reports_every_paid_call(swan, database, store, workers):
    world = swan.world(database)
    counter = CountingClient(make_model(world, PROFILE))
    reported: list[tuple[int, int]] = []
    calls = 0
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(
            db, counter, world, workers=workers, mapping_store=_store(store)
        )
        for question in swan.questions_for(database):
            _, report = executor.execute_with_report(question.blend_sql)
            reported.extend(report.call_sizes)
            calls += report.llm_calls
    assert counter.sizes, "the model was never paid"
    assert calls == len(counter.sizes)
    assert Counter(reported) == Counter(counter.sizes)


@pytest.mark.parametrize("plan", [None, "pairs"])
def test_run_udf_reports_every_paid_call(swan, plan):
    wrap, counters = _counting_wrap()
    run = run_udf(swan, PROFILE, 0, plan=plan, wrap_client=wrap)
    paid = [size for counter in counters for size in counter.sizes]
    assert run.usage.calls == len(run.call_sizes) == len(paid)
    assert Counter(run.call_sizes) == Counter(paid)


@pytest.mark.parametrize("database", DATABASES)
def test_planner_charges_every_paid_call(swan, database):
    """A ``pairs`` pass's report holds exactly the calls paid below it."""
    world = swan.world(database)
    counter = CountingClient(make_model(world, PROFILE))
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(
            db, counter, world, mapping_store=MappingStore()
        )
        plan = CallPlanner(executor).plan_and_execute(
            [question.blend_sql for question in swan.questions_for(database)]
        )
    report = plan.stats.report
    assert counter.sizes, "the planner paid nothing"
    assert report.llm_calls == len(counter.sizes)
    assert Counter(report.call_sizes) == Counter(counter.sizes)


def test_run_hqdl_reports_every_paid_call(swan):
    wrap, counters = _counting_wrap()
    run = run_hqdl(swan, PROFILE, 0, wrap_client=wrap)
    paid = [size for counter in counters for size in counter.sizes]
    assert run.usage.calls == len(paid)
    assert run.usage.input_tokens == sum(i for i, _ in paid)
    assert run.usage.output_tokens == sum(o for _, o in paid)


@pytest.fixture(scope="module")
def superhero_swan():
    return load_benchmark_subset(1, ["superhero"])


@pytest.mark.parametrize("batching", [None, BatchingConfig()], ids=["off", "on"])
def test_server_outcomes_sum_to_the_paid_calls(superhero_swan, batching):
    """Every question once per pipeline, two at a time, no deadline pressure."""
    questions = superhero_swan.questions_for("superhero")
    requests = [
        QueryRequest(
            request_id=index,
            tenant="alpha",
            database="superhero",
            sql=question.blend_sql,
            arrival=2.0 * index,
            pipeline=pipeline,
            qid=question.qid,
            deadline_seconds=1000.0,
        )
        for index, (pipeline, question) in enumerate(
            (pipeline, question)
            for question in questions
            for pipeline in ("udf", "hqdl")
        )
    ]
    config = ServerConfig(max_concurrent=2, queue_limit=128, batching=batching)
    with QueryServer(superhero_swan, config) as server:
        report = server.run(requests)
    assert report.usage.calls > 0
    # the HQDL expansion is built before the first arrival and charged to
    # the startup record; every other paid call belongs to one request
    assert report.startup.calls > 0
    assert sum(outcome.llm_calls for outcome in report.outcomes) + (
        report.startup.calls
    ) == report.usage.calls
