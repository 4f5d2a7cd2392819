"""Golden bytes of planned UDF runs, one sha256 per configuration.

``golden_planned.json`` pins what :class:`~repro.plan.CallPlanner`
produces through ``run_udf(plan="pairs")``
(``PYTHONPATH=src python tests/plan/test_golden_planned.py`` rewrites
it).  Each digest covers every question's outcome, the run's ``Usage``,
the multiset of paid ``call_sizes`` (sorted: every reported makespan is
a function of the multiset, so dispatch order is not pinned) and every
per-database ``plan_stats`` record, so a change in how the planner
collects its work — the calls, their dedup, what the store serves
afterwards — shows up here.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.runner import GoldResults, run_udf
from repro.swan.benchmark import load_benchmark

GOLDEN = Path(__file__).with_name("golden_planned.json")

DATABASES = (
    "california_schools",
    "european_football",
    "formula_1",
    "superhero",
)
#: (model profile, shots)
ARMS = (("gpt-3.5-turbo", 0), ("perfect", 2))


def config_id(database, profile, shots) -> str:
    return f"{database}@1/pairs/{profile}/s{shots}"


def planned_digest(swan, gold, database, profile, shots) -> str:
    """sha256 over one planned run's outcomes, usage, calls and plan stats."""
    run = run_udf(
        swan, profile, shots, databases=[database], gold=gold, plan="pairs"
    )
    payload = {
        "outcomes": [dataclasses.astuple(o) for o in run.outcomes],
        "usage": dataclasses.astuple(run.usage),
        "call_sizes": sorted(run.call_sizes),
        "plan_stats": run.plan_stats,
        "keys_generated": run.keys_generated,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


CONFIGS = [
    (database, profile, shots)
    for database in DATABASES
    for profile, shots in ARMS
]


@pytest.fixture(scope="module")
def swan_and_gold():
    swan = load_benchmark()
    return swan, GoldResults(swan)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenPlanned:
    @pytest.mark.parametrize(
        "config", CONFIGS, ids=[config_id(*c) for c in CONFIGS]
    )
    def test_planned_run_matches_pinned_bytes(
        self, swan_and_gold, golden, config
    ):
        swan, gold = swan_and_gold
        assert planned_digest(swan, gold, *config) == golden[config_id(*config)]

    def test_fixture_has_no_stray_entries(self, golden):
        assert sorted(golden) == sorted(config_id(*c) for c in CONFIGS)


if __name__ == "__main__":
    swan = load_benchmark()
    gold = GoldResults(swan)
    digests = {
        config_id(*config): planned_digest(swan, gold, *config)
        for config in CONFIGS
    }
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
