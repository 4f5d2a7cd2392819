"""Tests for the persistent run ledger (append, read-back, recovery)."""

import sqlite3

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    config_fingerprint,
)


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = config_fingerprint({"model": "m", "shots": 5})
        b = config_fingerprint({"shots": 5, "model": "m"})
        assert a == b
        assert len(a) == 12

    def test_differs_on_value_change(self):
        a = config_fingerprint({"model": "m", "shots": 5})
        b = config_fingerprint({"model": "m", "shots": 0})
        assert a != b


class TestAppendAndRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            rid = ledger.append(
                label="udf", pipeline="udf",
                config={"model": "m", "shots": 0},
                ex=0.45, f1=None, llm_calls=10,
                input_tokens=100, output_tokens=20, makespan=1.5,
                payload={"metrics": {"x": 1}},
            )
            assert rid == 1
            row = ledger.latest(label="udf")
        assert row["ex"] == pytest.approx(0.45)
        assert row["llm_calls"] == 10
        assert row["makespan"] == pytest.approx(1.5)
        assert row["fingerprint"] == config_fingerprint(
            {"model": "m", "shots": 0}
        )
        assert row["payload"]["metrics"] == {"x": 1}
        assert row["payload"]["config"] == {"model": "m", "shots": 0}

    def test_history_survives_reopen(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            ledger.append(label="a", pipeline="udf", ex=0.1)
        with RunLedger(path) as ledger:
            ledger.append(label="a", pipeline="udf", ex=0.2)
            runs = ledger.runs(label="a")
        assert [run["ex"] for run in runs] == [
            pytest.approx(0.1), pytest.approx(0.2)
        ]

    def test_filters(self, tmp_path):
        with RunLedger(tmp_path / "l.sqlite") as ledger:
            ledger.append(label="a", pipeline="udf", config={"x": 1})
            ledger.append(label="a", pipeline="hqdl", config={"x": 1})
            ledger.append(label="b", pipeline="udf", config={"x": 2})
            assert len(ledger.runs(label="a")) == 2
            assert len(ledger.runs(pipeline="udf")) == 2
            fp = config_fingerprint({"x": 1})
            assert len(ledger.runs(fingerprint=fp)) == 2
            assert ledger.latest(label="b")["pipeline"] == "udf"
            assert ledger.latest(label="nope") is None
            assert len(ledger) == 3

    def test_stats(self, tmp_path):
        with RunLedger(tmp_path / "l.sqlite") as ledger:
            ledger.append(label="a", pipeline="udf")
            stats = ledger.stats()
        assert stats == {
            "runs": 1, "appends": 1, "recovered": False, "wiped": False,
        }


class TestCorruptionRecovery:
    def test_garbage_file_is_discarded_and_recreated(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with RunLedger(path) as ledger:
            assert ledger.recovered
            assert len(ledger) == 0
            ledger.append(label="a", pipeline="udf", ex=0.3)
            assert ledger.latest(label="a")["ex"] == pytest.approx(0.3)

    def test_truncated_sqlite_header(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            ledger.append(label="a", pipeline="udf")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3] + b"\x00" * 16)
        with RunLedger(path) as ledger:
            # either recovered (unreadable) or wiped rows; never raises
            ledger.append(label="b", pipeline="udf")
            assert ledger.latest(label="b") is not None

    def test_clean_file_not_flagged(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            ledger.append(label="a", pipeline="udf")
        with RunLedger(path) as ledger:
            assert not ledger.recovered
            assert not ledger.wiped


class TestSchemaVersioning:
    def test_version_bump_wipes_rows(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            ledger.append(label="a", pipeline="udf")
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET version = ?", (LEDGER_SCHEMA_VERSION - 1,)
        )
        conn.commit()
        conn.close()
        with RunLedger(path) as ledger:
            assert ledger.wiped
            assert len(ledger) == 0
            row = None
            ledger.append(label="b", pipeline="udf")
            row = ledger.latest()
        assert row["label"] == "b"

    def test_version_bump_drops_an_older_column_set(self, tmp_path):
        # an older generation without today's columns: a wipe that only
        # deleted rows would leave ``append`` without a pipeline column
        path = tmp_path / "ledger.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE runs (id INTEGER PRIMARY KEY, label TEXT, score REAL)"
        )
        conn.execute("INSERT INTO runs (label, score) VALUES ('old', 0.5)")
        conn.execute("CREATE TABLE meta (version INTEGER NOT NULL)")
        conn.execute(
            "INSERT INTO meta (version) VALUES (?)", (LEDGER_SCHEMA_VERSION - 1,)
        )
        conn.commit()
        conn.close()
        with RunLedger(path) as ledger:
            assert ledger.wiped and not ledger.recovered
            assert len(ledger) == 0
            ledger.append(label="new", pipeline="udf", ex=0.25)
            assert ledger.latest()["ex"] == pytest.approx(0.25)

    def test_current_version_stamped(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        RunLedger(path).close()
        conn = sqlite3.connect(path)
        (version,) = conn.execute("SELECT version FROM meta").fetchone()
        conn.close()
        assert version == LEDGER_SCHEMA_VERSION
