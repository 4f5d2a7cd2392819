"""Golden result rows of the UDF executor, one sha256 per configuration.

``golden_rows.json`` was generated on the commit *before* LLMMap answers
moved from refilled temp tables to lookup functions
(``PYTHONPATH=src python tests/udf/test_golden_rows.py`` rewrites it).
Each digest covers, for every SWAN question of one world, the rows of
two executions of its hybrid SQL on one executor, in order — the first
a cold execution, the second a prepared one over a warm prompt cache —
so a change of how a mapping reaches SQLite has to keep every row, its
order and the storage class of every value.  A question that fails
contributes its error class instead.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.swan.benchmark import load_benchmark, load_benchmark_subset
from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor

GOLDEN = Path(__file__).with_name("golden_rows.json")

WORLDS = [
    ("california_schools", 1),
    ("european_football", 1),
    ("formula_1", 1),
    ("superhero", 1),
    ("superhero", 10),
    ("formula_1", 10),
]
PROFILES = ("perfect", "gpt-3.5-turbo", "gpt-4-turbo")
PUSHDOWN = (True, False)
#: (batch_size, shots)
ARMS = ((1, 0), (5, 5))


def config_id(database, scale, profile, pushdown, batch_size, shots) -> str:
    mode = "pushdown" if pushdown else "full"
    return f"{database}@{scale}/{profile}/{mode}/b{batch_size}s{shots}"


def rows_digest(world, questions, profile, pushdown, batch_size, shots) -> str:
    """sha256 over two in-order executions of every question on one executor."""
    digest = hashlib.sha256()
    model = MockChatModel(KnowledgeOracle(world), get_profile(profile))
    with build_curated_database(world) as db:
        executor = HybridQueryExecutor(
            db, model, world, batch_size=batch_size, pushdown=pushdown,
            shots=shots,
        )
        for question in questions:
            for run in range(2):
                try:
                    result = executor.execute(question.blend_sql)
                    payload = (len(result.columns), result.rows)
                except ReproError as exc:
                    payload = type(exc).__name__
                digest.update(repr((question.qid, run, payload)).encode())
                digest.update(b"\x1e")
    return digest.hexdigest()


def _swan(database, scale):
    if scale == 1:
        return load_benchmark()
    return load_benchmark_subset(scale, [database])


def world_digests(database, scale) -> dict[str, str]:
    """``{config id: digest}`` for one world rung, every profile and arm."""
    swan = _swan(database, scale)
    world, questions = swan.world(database), swan.questions_for(database)
    return {
        config_id(database, scale, profile, pushdown, batch_size, shots): (
            rows_digest(world, questions, profile, pushdown, batch_size, shots)
        )
        for profile in PROFILES
        for pushdown in PUSHDOWN
        for batch_size, shots in ARMS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenRows:
    @pytest.mark.parametrize(
        "database, scale", WORLDS, ids=[f"{d}@{s}" for d, s in WORLDS]
    )
    def test_rows_match_the_temp_table_path(self, golden, database, scale):
        digests = world_digests(database, scale)
        assert digests == {key: golden[key] for key in digests}

    def test_fixture_has_no_stray_entries(self, golden):
        assert len(golden) == (
            len(WORLDS) * len(PROFILES) * len(PUSHDOWN) * len(ARMS)
        )


if __name__ == "__main__":
    digests = {}
    for database, scale in WORLDS:
        digests.update(world_digests(database, scale))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
