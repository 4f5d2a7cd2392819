"""On one server, HQDL and UDF answer every SWAN question alike.

A server warms each HQDL database before its first arrival, and the
store's expansion face serves UDF maps from the cells that build
extracted.  When both pipelines read the same cells, any difference in
their rows is a pipeline fault, found without gold: each cell has one
producer, the build (a malformed row asked once more, a row still
malformed read NULL by both).  The questions that still differ at the
model settings below are those whose UDF SQL keeps a NULL group that
HQDL's join drops, or reads keys outside the expansion.
"""

from dataclasses import replace

import pytest

from repro.harness.benchserve import default_config
from repro.harness.runner import GoldResults
from repro.serve.server import QueryServer
from repro.sqlengine.results import results_match
from repro.swan.benchmark import load_benchmark

#: (model, shots) -> the fewest of the 120 questions whose rows agree
SETTINGS = {
    ("gpt-4-turbo", 2): 117,
    ("gpt-3.5-turbo", 0): 114,
    ("perfect", 2): 120,
}


@pytest.fixture(scope="module")
def swan():
    return load_benchmark(1)


@pytest.fixture(scope="module")
def gold(swan):
    return GoldResults(swan)


def _answers(swan, model, shots):
    """qid -> (HQDL rows, UDF rows) from one warmed server."""
    config = replace(default_config(), model_name=model, shots=shots)
    answers = {}
    with QueryServer(swan, config) as server:
        server.states.warm(swan.database_names())
        for database in swan.database_names():
            state = server.states[database]
            for question in swan.questions_for(database):
                answers[question.qid] = (
                    state.hqdl.answer(state.hqdl.db, question),
                    state.udf.execute(question.blend_sql),
                )
    return answers


@pytest.mark.parametrize(
    "model, shots", list(SETTINGS), ids=[f"{m}-{s}shot" for m, s in SETTINGS]
)
def test_both_pipelines_give_the_same_rows(swan, gold, model, shots):
    answers = _answers(swan, model, shots)
    questions = {q.qid: q for d in swan.database_names() for q in swan.questions_for(d)}
    assert len(answers) == len(questions) == 120
    differ = sorted(
        qid
        for qid, (hqdl, udf) in answers.items()
        if not results_match(hqdl, udf, ordered=questions[qid].ordered)
    )
    assert 120 - len(differ) >= SETTINGS[(model, shots)], differ
    if model == "perfect":  # and both are right
        for qid, (hqdl, udf) in answers.items():
            expected = gold.expected(qid)
            ordered = questions[qid].ordered
            assert results_match(expected, hqdl, ordered=ordered), qid
            assert results_match(expected, udf, ordered=ordered), qid
