"""Future work — materialized views over LLM generations (Section 4.2).

"Hybrid querying through UDFs offers more control for the database to
optimize the hybrid query, build materialized views..."  This bench runs
the Super Hero workload with a :class:`~repro.udf.store.MappingStore`
attached and measures how many later queries are answered straight from
stored generations.
"""

import pytest

from repro.eval.report import format_table
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.llm.usage import UsageMeter
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.store import MappingStore


def _run_workload(swan, with_store: bool):
    world = swan.world("superhero")
    meter = UsageMeter()
    model = MockChatModel(
        KnowledgeOracle(world), get_profile("gpt-3.5-turbo"), meter=meter
    )
    store = MappingStore() if with_store else None
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, model, world, mapping_store=store)
        for question in swan.questions_for("superhero"):
            executor.execute(question.blend_sql)
    return meter.total, store


@pytest.fixture(scope="module")
def baseline(swan):
    return _run_workload(swan, with_store=False)


def test_future_materialized_views(benchmark, swan, baseline, show):
    usage, store = benchmark.pedantic(
        _run_workload, args=(swan, True), rounds=1, iterations=1
    )
    baseline_usage, _ = baseline

    show(format_table(
        ["Configuration", "LLM calls", "Input tokens", "Signatures", "Store hits"],
        [
            ["temp tables only", baseline_usage.calls,
             baseline_usage.input_tokens, 0, 0],
            ["mapping store", usage.calls, usage.input_tokens,
             len(store), store.hits],
        ],
        title="Future work: stored generations over the Super Hero workload.",
    ))

    # generations are kept per signature ...
    assert len(store) > 0
    # ... and later queries on the same attribute read them for free
    assert store.hits > 0
    assert usage.calls <= baseline_usage.calls
