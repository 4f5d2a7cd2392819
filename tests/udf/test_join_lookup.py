"""An LLMJoin reads its answers the way an LLMMap does: through a lookup.

The join's occurrence becomes a derived table over its source table,
``(SELECT DISTINCT keys, CAST(lookup(keys) AS TEXT) AS value FROM source
WHERE lookup(keys) IS NOT NULL)``, bound to the same kind of lookup
function as a map.  So a join writes nothing to the connection: no temp
table, no row, and therefore no change that would clear the
connection's key memo for every other query on it.  Its key columns
carry the source table's own values, not their ``str()``.
"""

import pytest

from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor

from tests.conftest import make_model

GENDER = "What is the gender of this superhero?"
GENDER_JOIN = (
    "SELECT s.superhero_name, j.value FROM superhero s JOIN "
    f"{{{{LLMJoin('{GENDER}', 'superhero::superhero_name', "
    "'superhero::full_name')}} AS j "
    "ON s.superhero_name = j.superhero_name AND s.full_name = j.full_name "
    "ORDER BY s.superhero_name"
)
ID_JOIN = (
    f"SELECT j.id FROM {{{{LLMJoin('{GENDER}', 'superhero::id')}}}} AS j "
    "ORDER BY j.id LIMIT 2"
)
HEIGHT_JOIN = (
    f"SELECT j.height_cm FROM {{{{LLMJoin('{GENDER}', "
    "'superhero::height_cm')}} AS j"
)
RACE_MAP = (
    "SELECT superhero_name FROM superhero WHERE "
    "{{LLMMap('What is the race of this superhero?', "
    "'superhero::superhero_name', 'superhero::full_name')}} = 'Human'"
)


@pytest.fixture()
def db(superhero_world):
    with build_curated_database(superhero_world) as database:
        yield database


@pytest.fixture()
def executor(db, superhero_world):
    return HybridQueryExecutor(db, make_model(superhero_world), superhero_world)


def _key_fetches(db, run) -> int:
    """How many key-fetch queries reach SQLite while ``run`` runs."""
    statements: list[str] = []
    db.connection.set_trace_callback(statements.append)
    try:
        run()
    finally:
        db.connection.set_trace_callback(None)
    return sum("NOT INDEXED" in statement for statement in statements)


def test_a_repeated_join_writes_nothing_and_returns_the_same_rows(
    executor, db
):
    executor.execute(RACE_MAP)  # its key fetch is now memoized
    changes = db.connection.total_changes
    results = [executor.execute(GENDER_JOIN).rows for _ in range(3)]
    assert results[0] and results[1] == results[0] and results[2] == results[0]
    assert db.connection.total_changes == changes
    assert db.query_scalar("SELECT count(*) FROM sqlite_temp_master") == 0
    # no write cleared the memo: the map's keys come back without a fetch
    assert _key_fetches(db, lambda: executor.execute(RACE_MAP)) == 0
    assert [lookup for lookup in db.lookups if lookup.bound] == []


def test_key_columns_keep_the_source_values(executor):
    # the source's INTEGER values, so ORDER BY sorts them as numbers
    assert executor.execute(ID_JOIN).rows == [(1,), (2,)]


def test_a_null_key_yields_no_row(executor, db):
    db.execute("UPDATE superhero SET height_cm = NULL WHERE id = 1")
    rows = executor.execute(HEIGHT_JOIN).rows
    assert rows
    # a NULL key's lookup is NULL, although its key was fetched as 'None'
    assert all(height not in (None, "None") for (height,) in rows)
