"""Ablation — full-row vs single-cell generation (Section 5.4).

"Predicting all column values may be more advantageous than predicting a
single column value, as it mirrors a chain-of-thought process."  This
bench measures the same attribute generated both ways — through HQDL's
row completion and through single-cell LLMMap calls — and asserts the
row path is at least as accurate.
"""

import pytest

from repro.core.hqdl import HQDL
from repro.eval.report import format_table
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor

ATTRIBUTE = "publisher_name"
QUESTION = "Which comic book publisher published this superhero?"


def _row_accuracy(world) -> float:
    model = MockChatModel(KnowledgeOracle(world), get_profile("gpt-3.5-turbo"))
    pipeline = HQDL(world, model, shots=0)
    generation = pipeline.generate_all().tables["superhero_info"]
    expansion = world.expansion("superhero_info")
    index = expansion.generated_column_names().index(ATTRIBUTE)
    correct = total = 0
    for key, values in generation.rows.items():
        total += 1
        truth = world.truth_value("superhero_info", key, ATTRIBUTE)
        if values is not None and values[index] == truth:
            correct += 1
    return correct / total


def _cell_accuracy(world) -> float:
    model = MockChatModel(KnowledgeOracle(world), get_profile("gpt-3.5-turbo"))
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, model, world)
        result = executor.execute(
            "SELECT superhero_name, full_name, "
            f"{{{{LLMMap('{QUESTION}', 'superhero::superhero_name', "
            "'superhero::full_name')}} AS pub FROM superhero"
        )
    correct = total = 0
    for hero, full, pub in result.rows:
        total += 1
        if pub == world.truth_value("superhero_info", (hero, full), ATTRIBUTE):
            correct += 1
    return correct / total


def test_ablation_row_vs_single_cell(benchmark, swan, show):
    world = swan.world("superhero")
    row_acc = benchmark.pedantic(_row_accuracy, args=(world,), rounds=1, iterations=1)
    cell_acc = _cell_accuracy(world)

    show(format_table(
        ["Generation mode", "Publisher accuracy"],
        [["full row (HQDL)", f"{row_acc * 100:.1f}%"],
         ["single cell, batched (UDF)", f"{cell_acc * 100:.1f}%"]],
        title="Ablation: full-row vs single-cell generation (GPT-3.5, 0-shot).",
    ))

    # the chain-of-thought-like full-row path wins (Section 5.4)
    assert row_acc > cell_acc
