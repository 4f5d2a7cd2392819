"""Future work — semantic caching with query rewriting (Sections 4.3/5.5).

"A promising approach ... is incorporating query rewriting within Hybrid
Query UDFs to fully leverage all cached LLM-generated data."  This bench
runs the full European Football workload (the paper's own cost example
lives there) with and without a rewriting mapping store and measures the
saved calls/tokens net of the equivalence-check overhead.
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


def _run_workload(swan, semantic: bool):
    world = swan.world("european_football")
    meter = UsageMeter()
    model = MockChatModel(
        KnowledgeOracle(world), get_profile("gpt-4-turbo"), meter=meter
    )
    store = MappingStore(rewrite=True) if semantic else None
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, model, world, mapping_store=store)
        for question in swan.questions_for("european_football"):
            executor.execute(question.blend_sql)
    return meter.total, store


@pytest.fixture(scope="module")
def baseline(swan):
    return _run_workload(swan, semantic=False)


def test_future_semantic_cache(benchmark, swan, baseline, show):
    semantic_usage, store = benchmark.pedantic(
        _run_workload, args=(swan, True), rounds=1, iterations=1
    )
    baseline_usage, _ = baseline
    stats = store.rewrite_stats
    keys_reused = store.keys_served + stats.keys_reused

    show(format_table(
        ["Configuration", "LLM calls", "Input tokens", "Output tokens"],
        [
            ["prompt cache only (BlendSQL today)", baseline_usage.calls,
             baseline_usage.input_tokens, baseline_usage.output_tokens],
            ["+ mapping store w/ rewriting", semantic_usage.calls,
             semantic_usage.input_tokens, semantic_usage.output_tokens],
        ],
        title="Future work: query rewriting over the European Football workload.",
    ))
    show(format_table(
        ["Store hits", "Exact hits", "Rewrites", "Rejected", "Keys reused"],
        [[store.hits, stats.exact_hits, stats.rewrites,
          stats.rejected_rewrites, keys_reused]],
        title="Mapping store statistics (keys reused: store-served + rewritten).",
    ))

    # rewriting reuses generations and pays off net of equivalence checks
    assert keys_reused > 0
    assert stats.rewrites > 0
    assert semantic_usage.calls < baseline_usage.calls
    assert semantic_usage.input_tokens < baseline_usage.input_tokens
    # rewriting never mixes attributes (rejections prove the check works)
    assert stats.rejected_rewrites > 0
