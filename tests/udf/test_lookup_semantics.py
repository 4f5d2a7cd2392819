"""The lookup rewrite compares, sorts and groups like the subquery it replaced.

Until LLMMap answers moved into lookup functions, an occurrence was
rewritten to ``(SELECT v FROM slot WHERE k0 = t.c AND ...)`` over a temp
table of TEXT columns.  It is now ``CAST(lookup(t.c, ...) AS TEXT)``.
Both are driven here from the same mapping — built the way the executor
builds one, from ``str()``-ed ``SELECT DISTINCT`` keys — over a
hand-built table whose INTEGER, REAL, TEXT and untyped columns hold the
values where SQLite's affinity rules bite: NULL and the text ``'None'``,
``1`` vs ``1.0``, ``'007'``, ``1e20``, mixed-case and non-ASCII text,
and duplicate keys.  The new side is the executor's own rewrite
(:meth:`PreparedStatement.final_sql`), so dropping the cast fails here.

One difference is pinned rather than hidden: a column with no declared
type has BLOB affinity, so the old ``k0 = t.u`` compared TEXT ``'1'``
with INTEGER ``1`` unconverted and never matched — the answer the model
gave for that key was lost.  The lookup applies the key fetch's own
``str()`` and finds it.
"""

import pytest

from repro.sqlengine.database import Database
from repro.sqlparser import parse
from repro.udf.executor import PreparedStatement

VALUES = [
    None, "None", 1, 1.0, "1", "007", 7, 1e20, "1e20",
    "Abc", "abc", "ABC", "Zürich", "東京", 10, "10", 1, "Abc", None,
]
#: answers handed out to keys in fetch order; None is a key the model
#: failed on, and numeric-looking text is where affinity matters
ANSWERS = ["10", "5", "9", None, "abc", "Abc", "-1", "10.0", "", "Ω", "05"]
TYPED = ("i", "r", "s")
#: one query per use of the ingredient's value; {e} is the ingredient
QUERIES = {
    "select": "SELECT id, {e}, typeof({e}) FROM t ORDER BY id",
    "eq-text": "SELECT id FROM t WHERE {e} = '10' ORDER BY id",
    "eq-number": "SELECT id FROM t WHERE {e} = 10 ORDER BY id",
    "gt-number": "SELECT id FROM t WHERE {e} > 5 ORDER BY id",
    "gt-text": "SELECT id FROM t WHERE {e} > '5' ORDER BY id",
    "is-null": "SELECT id FROM t WHERE {e} IS NULL ORDER BY id",
    "order-by": "SELECT id FROM t ORDER BY {e}, id",
    "group-by": "SELECT {e}, COUNT(*) FROM t GROUP BY {e}",
}


@pytest.fixture()
def db():
    with Database.in_memory() as database:
        database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, r REAL, s TEXT, u)"
        )
        for value in VALUES:
            database.execute(
                "INSERT INTO t (i, r, s, u) VALUES (?, ?, ?, ?)", (value,) * 4
            )
        yield database


def _mapping(db, columns):
    """Answers for the str()-ed distinct keys, as the executor builds them."""
    keys = [
        tuple(map(str, row))
        for row in db.query_rows(
            f"SELECT DISTINCT {', '.join(columns)} FROM t NOT INDEXED"
        )
    ]
    return {key: ANSWERS[n % len(ANSWERS)] for n, key in enumerate(keys)}


class _Sides:
    """The old subquery and the new lookup rewrite over one mapping."""

    def __init__(self, db, columns):
        self.db = db
        self.columns = columns
        mapping = _mapping(db, columns)
        self.table = "old_" + "_".join(columns)
        keys = [f"k{n}" for n in range(len(columns))]
        db.execute(
            f"CREATE TEMP TABLE {self.table} "
            f"({', '.join(f'{name} TEXT' for name in keys + ['v'])})"
        )
        db.insert_rows(
            self.table,
            keys + ["v"],
            [key + (value,) for key, value in mapping.items() if value is not None],
        )
        self.subquery = "(SELECT v FROM {} WHERE {})".format(
            self.table,
            " AND ".join(f"{k} = t.{c}" for k, c in zip(keys, columns)),
        )
        self.lookup = db.acquire_lookup(len(columns))
        self.lookup.bind(mapping)
        refs = ", ".join(f"'t::{c}'" for c in columns)
        self.ingredient = "{{LLMMap('What is the answer for this key?', %s)}}" % refs

    def old(self, template):
        return self.db.query_rows(template.format(e=self.subquery))

    def new(self, template):
        statement = PreparedStatement(
            parse(template.format(e=self.ingredient)), cached=False
        )
        return self.db.query_rows(statement.final_sql((self.lookup.name,)))

    def bare(self, template):
        call = f"{self.lookup.name}({', '.join(f't.{c}' for c in self.columns)})"
        return self.db.query_rows(template.format(e=call))


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize(
    "columns", [(c,) for c in TYPED] + [("s", "i"), ("r", "s")], ids=str
)
def test_lookup_agrees_with_the_subquery(db, columns, query):
    sides = _Sides(db, columns)
    assert sides.new(QUERIES[query]) == sides.old(QUERIES[query])


@pytest.mark.parametrize("query", QUERIES)
def test_untyped_column_agrees_on_text_keys(db, query):
    db.execute("DELETE FROM t WHERE typeof(u) NOT IN ('text', 'null')")
    sides = _Sides(db, ("u",))
    assert sides.new(QUERIES[query]) == sides.old(QUERIES[query])


def test_untyped_column_keeps_answers_the_subquery_lost(db):
    sides = _Sides(db, ("u",))
    mapping = _mapping(db, ("u",))
    template = "SELECT id, u, {e} FROM t ORDER BY id"
    changed = {
        new[0]: (old[2], new[2])
        for old, new in zip(sides.old(template), sides.new(template))
        if old != new
    }
    # DISTINCT keeps one of 1 and 1.0, so not every str() is a key
    lost = {
        row_id: (None, mapping.get((str(value),)))
        for row_id, value in db.query_rows("SELECT id, u FROM t")
        if isinstance(value, (int, float))
        and mapping.get((str(value),)) is not None
    }
    assert lost and changed == lost


def test_the_cast_is_load_bearing(db):
    """Without it, '10' > 5 holds: a bare result has no affinity."""
    sides = _Sides(db, ("s",))
    template = QUERIES["gt-number"]
    ten = {
        row[0]
        for row in db.query_rows(f"SELECT id, {sides.subquery} AS v FROM t")
        if row[1] == "10"
    }
    assert ten
    assert ten.isdisjoint(row[0] for row in sides.old(template))
    assert ten.isdisjoint(row[0] for row in sides.new(template))
    assert ten <= {row[0] for row in sides.bare(template)}
    assert sides.bare(template) != sides.old(template)


def test_null_keys_and_unknown_keys_read_null(db):
    lookup = db.acquire_lookup(2)
    lookup.bind({("None", "None"): "x", ("1", "None"): "y"})
    name = lookup.name
    assert db.query_scalar(f"SELECT {name}(NULL, NULL)") is None
    assert db.query_scalar(f"SELECT {name}('None', 'None')") == "x"
    assert db.query_scalar(f"SELECT {name}(1, 'None')") == "y"
    assert db.query_scalar(f"SELECT {name}(1, NULL)") is None
    assert db.query_scalar(f"SELECT {name}(2, 'None')") is None
    lookup.unbind()
    assert not lookup.bound
    assert db.query_scalar(f"SELECT {name}('None', 'None')") is None


def test_released_lookups_are_recycled_by_width(db):
    one, two = db.acquire_lookup(1), db.acquire_lookup(2)
    assert one.name != two.name
    one.bind({("a",): "b"})
    db.release_lookup(one)
    assert not one.bound
    assert db.acquire_lookup(2) is not two
    assert db.acquire_lookup(1) is one
    assert len(db.lookups) == 3
    assert len({lookup.name for lookup in db.lookups}) == 3
