"""Tests for the Database wrapper."""

import pytest

from repro.errors import ExecutionError, SchemaError
from repro.sqlengine.database import Database
from repro.sqlengine.schema import ColumnSchema, TableSchema


@pytest.fixture()
def db():
    database = Database.in_memory()
    database.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    database.insert_rows("t", ["a", "b"], [(1, "x"), (2, "y"), (3, "z")])
    yield database
    database.close()


class TestExecution:
    def test_query(self, db):
        result = db.query("SELECT a, b FROM t ORDER BY a")
        assert result.columns == ["a", "b"]
        assert result.rows == [(1, "x"), (2, "y"), (3, "z")]

    def test_query_rows_are_plain_tuples(self, db):
        rows = db.query("SELECT a, b FROM t ORDER BY a").rows
        assert type(rows) is list
        assert all(type(row) is tuple for row in rows)

    def test_query_column_and_scalar(self, db):
        assert db.query_column("SELECT a FROM t ORDER BY a") == [1, 2, 3]
        assert db.query_scalar("SELECT COUNT(*) FROM t") == 3
        assert db.query_scalar("SELECT a FROM t WHERE a > 99") is None

    def test_parameters(self, db):
        assert db.query_scalar("SELECT b FROM t WHERE a = ?", (2,)) == "y"

    def test_bad_sql_raises_execution_error(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT nope FROM missing")

    def test_executescript(self, db):
        db.executescript("CREATE TABLE u (x); INSERT INTO u VALUES (1);")
        assert db.query_scalar("SELECT x FROM u") == 1


class TestSchemaOperations:
    def test_create_table_from_schema(self, db):
        schema = TableSchema("s", [ColumnSchema("n", "INTEGER")], primary_key=("n",))
        db.create_table(schema)
        assert db.has_table("s")
        assert db.table_columns("s") == ["n"]

    def test_create_if_not_exists(self, db):
        schema = TableSchema("s", [ColumnSchema("n", "INTEGER")])
        db.create_table(schema)
        db.create_table(schema, if_not_exists=True)  # no error

    def test_drop_table(self, db):
        db.drop_table("t")
        assert not db.has_table("t")
        db.drop_table("t")  # idempotent

    def test_table_names_excludes_internal(self, db):
        assert db.table_names() == ["t"]

    def test_table_columns_unknown_raises(self, db):
        with pytest.raises(SchemaError):
            db.table_columns("missing")

    def test_row_count(self, db):
        assert db.row_count("t") == 3


class TestCloneAndSave:
    def test_clone_is_independent(self, db):
        clone = db.clone_in_memory()
        clone.execute("DELETE FROM t")
        assert clone.row_count("t") == 0
        assert db.row_count("t") == 3
        clone.close()

    def test_save_and_reopen(self, db, tmp_path):
        path = tmp_path / "saved.db"
        db.save_to(path)
        reopened = Database.open(path)
        assert reopened.row_count("t") == 3
        reopened.close()

    def test_context_manager_closes(self):
        with Database.in_memory() as database:
            database.execute("CREATE TABLE x (a)")
        with pytest.raises(ExecutionError):
            database.query("SELECT 1")


class TestChunkedInserts:
    def test_generator_input_streams(self, db):
        db.execute("CREATE TABLE big (n INTEGER)")
        db.insert_rows(
            "big", ["n"], ((i,) for i in range(1234)), chunk_size=100
        )
        assert db.query_scalar("SELECT COUNT(*) FROM big") == 1234
        assert db.query_scalar("SELECT SUM(n) FROM big") == sum(range(1234))

    def test_chunk_size_validated(self, db):
        with pytest.raises(ValueError):
            db.insert_rows("t", ["a", "b"], [(9, "w")], chunk_size=0)

    def test_bad_row_rolls_back_every_chunk(self, db):
        # a failure in a late chunk must not leave earlier chunks behind
        rows = [(i, "ok") for i in range(10)] + [("not", "enough", "cols")]
        with pytest.raises(ExecutionError):
            db.insert_rows("t", ["a", "b"], rows, chunk_size=2)
        assert db.query_scalar("SELECT COUNT(*) FROM t") == 3


class TestCreateIndex:
    def test_auto_named_index(self, db):
        name = db.create_index("t", ["a"])
        assert name == "idx_t_a"
        names = db.query_column(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
        assert "idx_t_a" in names

    def test_idempotent(self, db):
        db.create_index("t", ["a", "b"])
        db.create_index("t", ["a", "b"])  # IF NOT EXISTS: no error

    def test_empty_columns_rejected(self, db):
        with pytest.raises(ValueError):
            db.create_index("t", [])
