"""Pinned cost and answers of whole-world runs with generation reuse attached.

Each run sends the 30 questions of one world through one executor and
reads paid calls, input and output tokens, and a digest of every
question's sorted result rows.  Reuse across phrasings (query rewriting)
is pinned per world and profile; reuse of complete generations on the
superhero workload is pinned for ``gpt-3.5-turbo``.  A change to how
generations are stored and looked up must keep every figure.
"""

import hashlib

import pytest

from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor, MappingStore

from tests.conftest import make_model

#: (world, profile) -> (paid calls, input tokens, output tokens, rows digest)
REWRITING = {
    ("superhero", "gpt-4-turbo"): (365, 77258, 9353, "8516e48e2658acf5"),
    ("superhero", "gpt-3.5-turbo"): (360, 76602, 9431, "0f5afab767d9eac5"),
    ("formula_1", "gpt-4-turbo"): (64, 9814, 880, "1d98153f0134cffe"),
    ("formula_1", "gpt-3.5-turbo"): (64, 9814, 885, "82ad214ee74d42f0"),
    ("european_football", "gpt-4-turbo"): (401, 42276, 6542, "9059763b74586560"),
    ("european_football", "gpt-3.5-turbo"): (400, 42169, 6535, "f28890f8f978bd7f"),
    ("california_schools", "gpt-4-turbo"): (328, 62644, 10486, "9f98b74e909cb957"),
    ("california_schools", "gpt-3.5-turbo"): (330, 62845, 10506, "071ded8bfab86638"),
}
#: re-pinned when the store began serving a partly covered ingredient per
#: key (it used to regenerate the whole ingredient): 7 fewer calls, and
#: the rows the rewriting store already gave on the same run
COMPLETE_GENERATIONS = {
    ("superhero", "gpt-3.5-turbo"): (499, 108244, 14285, "0f5afab767d9eac5"),
}


def rewriting() -> dict:
    """Executor arguments that reuse generations across phrasings."""
    return {"mapping_store": MappingStore(rewrite=True)}


def complete_generations() -> dict:
    """Executor arguments that reuse every generation in later queries."""
    return {"mapping_store": MappingStore()}


def run_world(swan, name: str, profile: str, attach) -> tuple:
    world = swan.world(name)
    model = make_model(world, profile)
    digest = hashlib.sha256()
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(db, model, world, **attach())
        for question in swan.questions_for(name):
            rows = sorted(map(repr, executor.execute(question.blend_sql).rows))
            digest.update(repr(rows).encode())
    total = model.meter.total
    return (
        total.calls,
        total.input_tokens,
        total.output_tokens,
        digest.hexdigest()[:16],
    )


@pytest.mark.parametrize(
    "name, profile", sorted(REWRITING), ids=lambda value: value
)
def test_rewriting_run(swan, name, profile):
    assert run_world(swan, name, profile, rewriting) == REWRITING[name, profile]


@pytest.mark.parametrize(
    "name, profile", sorted(COMPLETE_GENERATIONS), ids=lambda value: value
)
def test_complete_generations_run(swan, name, profile):
    pinned = COMPLETE_GENERATIONS[name, profile]
    assert run_world(swan, name, profile, complete_generations) == pinned
