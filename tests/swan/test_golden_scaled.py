"""Golden bytes of scaled worlds, one sha256 per database.

``golden_scaled.json`` pins the original and the curated database of
every SWAN world at scales 2, 10 and 100, so a change in how replica
rows are produced must reproduce them value for value, in order.

- ``PYTHONPATH=src python tests/swan/test_golden_scaled.py`` rewrites
  the file (do so only for a deliberate change of scaled rows);
- ``PYTHONPATH=src python tests/swan/test_golden_scaled.py check 100``
  checks the listed scales and exits 1 on a mismatch.  Tier-1 checks
  scales 2 and 10; scale 100 takes a CI step of its own.

A digest covers ``sqlite_master`` (tables and indexes with their SQL)
and the ``repr`` of every row of every table in rowid order, so it
tells ``1`` from ``1.0`` from ``'1'`` and does not depend on SQLite's
page layout.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.swan.build import build_curated_database, build_original_database
from repro.swan.scale import scale_world
from repro.swan.worlds import WORLD_BUILDERS

GOLDEN = Path(__file__).with_name("golden_scaled.json")

SCALES = (2, 10, 100)
TIER1_SCALES = (2, 10)
KINDS = {"original": build_original_database, "curated": build_curated_database}


def config_id(database: str, scale: int, kind: str) -> str:
    return f"{database}@{scale}/{kind}"


def database_digest(db) -> str:
    """sha256 over the schema and every row of ``db``."""
    digest = hashlib.sha256()
    connection = db.connection
    master = connection.execute(
        "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY type, name"
    ).fetchall()
    for entry in master:
        digest.update(repr(entry).encode() + b"\n")
    for kind, name, _, _ in master:
        if kind != "table":
            continue
        digest.update(f"-- {name}\n".encode())
        for row in connection.execute(f'SELECT * FROM "{name}" ORDER BY rowid'):
            digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


def scaled_digests(database: str, scale: int) -> dict[str, str]:
    """Both databases' digests for ``database`` built at ``scale``."""
    world = scale_world(WORLD_BUILDERS[database](), scale)
    digests = {}
    for kind, build in KINDS.items():
        with build(world) as db:
            digests[config_id(database, scale, kind)] = database_digest(db)
    return digests


CONFIGS = [
    (database, scale) for scale in TIER1_SCALES for database in sorted(WORLD_BUILDERS)
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenScaled:
    @pytest.mark.parametrize(
        "config", CONFIGS, ids=[f"{d}@{s}" for d, s in CONFIGS]
    )
    def test_scaled_databases_match_pinned_bytes(self, golden, config):
        for key, digest in scaled_digests(*config).items():
            assert digest == golden[key], key

    def test_fixture_has_no_stray_entries(self, golden):
        assert sorted(golden) == sorted(
            config_id(database, scale, kind)
            for scale in SCALES
            for database in WORLD_BUILDERS
            for kind in KINDS
        )


def _check(scales: list[int]) -> int:
    golden = json.loads(GOLDEN.read_text())
    failed = 0
    for scale in scales:
        for database in sorted(WORLD_BUILDERS):
            for key, digest in scaled_digests(database, scale).items():
                ok = digest == golden[key]
                failed += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {key}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["check"]:
        sys.exit(_check([int(s) for s in sys.argv[2:]] or list(SCALES)))
    digests = {}
    for scale in SCALES:
        for database in sorted(WORLD_BUILDERS):
            digests.update(scaled_digests(database, scale))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
