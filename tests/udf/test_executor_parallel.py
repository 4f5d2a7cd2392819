"""Determinism of the executor under the parallel dispatcher.

The acceptance bar from ISSUE 1: ``workers=8`` must produce byte-identical
``ResultSet``s and identical aggregate ``Usage`` token totals as
``workers=1`` on every SWAN UDF question, while issuing at most one
upstream call per unique prompt.
"""

from __future__ import annotations

import threading

import pytest

from repro.llm.chat import MockChatModel
from repro.llm.client import ChatResponse
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor


class CallCountingModel:
    """Wraps a MockChatModel, counting upstream calls per prompt."""

    def __init__(self, inner: MockChatModel) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.calls_by_prompt: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        with self._lock:
            self.calls_by_prompt[prompt] = self.calls_by_prompt.get(prompt, 0) + 1
        return self.inner.complete(prompt, label=label)


def _run_database(swan, name: str, workers: int):
    """All questions of one SWAN database under one executor config."""
    world = swan.world(name)
    model = MockChatModel(KnowledgeOracle(world), get_profile("gpt-3.5-turbo"))
    counting = CallCountingModel(model)
    results = {}
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(
            db, counting, world, shots=0, workers=workers
        )
        for question in swan.questions_for(name):
            results[question.qid] = executor.execute(question.blend_sql)
    return results, model.meter.total, counting.calls_by_prompt


@pytest.mark.parametrize("name", ["superhero", "california_schools"])
def test_workers_8_identical_to_workers_1(swan, name):
    sequential, seq_usage, seq_calls = _run_database(swan, name, workers=1)
    parallel, par_usage, par_calls = _run_database(swan, name, workers=8)

    # byte-identical result sets on every question
    assert sequential.keys() == parallel.keys()
    for qid in sequential:
        assert sequential[qid].rows == parallel[qid].rows, qid
        assert sequential[qid].columns == parallel[qid].columns, qid

    # identical aggregate token totals
    assert seq_usage == par_usage

    # at most one upstream call per unique prompt (dispatch dedup + cache)
    assert all(count == 1 for count in par_calls.values())
    assert par_calls == seq_calls


def test_failed_batch_degrades_without_aborting_siblings(swan):
    """A transient error in one batch yields None answers, not a query
    failure (a plain LLMError is a broken client and aborts instead)."""
    from repro.errors import TransientLLMError
    from repro.llm.usage import Usage

    world = swan.world("superhero")

    class FlakyModel:
        """Fails the batch containing a chosen key; answers the rest."""

        def __init__(self, inner):
            self.inner = inner
            self.model_name = inner.model_name
            self.failed = 0
            self._lock = threading.Lock()

        def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
            if "Spider-Man" in prompt:
                with self._lock:
                    self.failed += 1
                raise TransientLLMError("injected batch failure")
            return self.inner.complete(prompt, label=label)

    inner = MockChatModel(KnowledgeOracle(world), get_profile("perfect"))
    flaky = FlakyModel(inner)
    query = (
        "SELECT superhero_name FROM superhero WHERE "
        "{{LLMMap('Which comic book publisher published this superhero?', "
        "'superhero::superhero_name', 'superhero::full_name')}} "
        "= 'Marvel Comics' ORDER BY superhero_name"
    )
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, flaky, world, workers=4)
        flaky_result = executor.execute(query)
    assert flaky.failed >= 1

    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, inner, world, workers=4)
        full_result = executor.execute(query)

    # the failed batch's keys have no generated value (-> filtered out),
    # but every other batch still answered
    full_names = {row[0] for row in full_result.rows}
    flaky_names = {row[0] for row in flaky_result.rows}
    assert "Spider-Man" in full_names
    assert "Spider-Man" not in flaky_names
    assert flaky_names < full_names
    assert flaky_names  # siblings of the failed batch survived


def test_workers_validation(swan):
    world = swan.world("superhero")
    model = MockChatModel(KnowledgeOracle(world), get_profile("perfect"))
    with build_curated_database(world) as db:
        with pytest.raises(ValueError):
            HybridQueryExecutor(db, model, world, workers=0)


def test_one_failed_chunk_degrades_alone_traced_or_not(swan, monkeypatch):
    """On the plain stack (the model under the executor's prompt cache)
    a transient error in one map chunk degrades that chunk only, and a
    traced run degrades the same chunk and returns the same rows."""
    from repro.errors import TransientLLMError
    from repro.obs import Telemetry

    world = swan.world("superhero")
    query = (
        "SELECT superhero_name FROM superhero WHERE "
        "{{LLMMap('Which comic book publisher published this superhero?', "
        "'superhero::superhero_name', 'superhero::full_name')}} "
        "= 'Marvel Comics' ORDER BY superhero_name"
    )
    complete = MockChatModel.complete

    def flaky(self, prompt, *, label=""):
        if label == "udf:map" and "'Spider-Man'" in prompt:
            raise TransientLLMError("injected chunk failure")
        return complete(self, prompt, label=label)

    monkeypatch.setattr(MockChatModel, "complete", flaky)
    runs = []
    for telemetry in (None, Telemetry.on()):
        model = MockChatModel(KnowledgeOracle(world), get_profile("perfect"))
        with build_curated_database(world) as db:
            executor = HybridQueryExecutor(db, model, world, telemetry=telemetry)
            result, report = executor.execute_with_report(query)
        runs.append((result.rows, report.degraded_batches, report.llm_calls))
    (rows, degraded, calls), traced = runs
    assert degraded == 1
    assert calls >= 2 and rows  # the other chunks answered
    assert traced == runs[0]
