"""Tests for the SQLite-backed persistent prompt cache."""

import hashlib
import sqlite3

import pytest

from repro.llm.client import ScriptedClient
from repro.llm.diskcache import (
    SCHEMA_VERSION,
    PersistentClient,
    PersistentPromptCache,
    cache_key,
)
from repro.llm.usage import Usage


class TestCacheKey:
    def test_distinct_configurations_never_collide(self):
        base = cache_key("gpt-4", 0, "hello")
        assert cache_key("gpt-4", 5, "hello") != base
        assert cache_key("gpt-3.5", 0, "hello") != base
        assert cache_key("gpt-4", 0, "hello ") != base

    def test_deterministic(self):
        assert cache_key("m", 1, "p") == cache_key("m", 1, "p")


class TestPersistentPromptCache:
    def test_round_trip(self, tmp_path):
        with PersistentPromptCache(tmp_path / "c.sqlite") as cache:
            assert cache.get("m", 0, "p") is None
            cache.put("m", 0, "p", "answer")
            assert cache.get("m", 0, "p") == "answer"
            assert cache.stats() == {
                "entries": 1, "hits": 1, "misses": 1, "stores": 1,
                "evictions": 0, "recovered": False,
            }

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with PersistentPromptCache(path) as cache:
            cache.put("m", 0, "p", "answer")
        with PersistentPromptCache(path) as cache:
            assert cache.get("m", 0, "p") == "answer"
            assert not cache.recovered

    def test_shots_and_model_namespace_entries(self, tmp_path):
        with PersistentPromptCache(tmp_path / "c.sqlite") as cache:
            cache.put("m", 0, "p", "zero-shot")
            cache.put("m", 5, "p", "five-shot")
            cache.put("other", 0, "p", "other-model")
            assert cache.get("m", 0, "p") == "zero-shot"
            assert cache.get("m", 5, "p") == "five-shot"
            assert cache.get("other", 0, "p") == "other-model"

    def test_corrupt_file_recovered(self, tmp_path):
        path = tmp_path / "c.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with PersistentPromptCache(path) as cache:
            assert cache.recovered
            cache.put("m", 0, "p", "answer")
            assert cache.get("m", 0, "p") == "answer"

    def test_version_bump_invalidates_entries(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with PersistentPromptCache(path) as cache:
            cache.put("m", 0, "p", "stale")
        # simulate a file written by an older cache generation
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET version = ?", (SCHEMA_VERSION - 1,))
        conn.commit()
        conn.close()
        with PersistentPromptCache(path) as cache:
            assert len(cache) == 0
            assert cache.get("m", 0, "p") is None
            assert not cache.recovered  # wiped, not recreated

    def test_version_one_layout_is_dropped_not_half_read(self, tmp_path):
        # the layout SCHEMA_VERSION 1 wrote: recency columns without a
        # default, so a wipe that only deleted rows would fail the put
        path = tmp_path / "c.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE entries (key TEXT PRIMARY KEY,"
            " completion TEXT NOT NULL, model TEXT NOT NULL,"
            " shots INTEGER NOT NULL, last_used INTEGER NOT NULL,"
            " uses INTEGER NOT NULL DEFAULT 0)"
        )
        conn.execute("CREATE TABLE meta (version INTEGER NOT NULL)")
        conn.execute("INSERT INTO meta (version) VALUES (1)")
        v1_key = hashlib.sha256("v1\x1fm\x1f0\x1fp".encode()).hexdigest()
        conn.execute(
            "INSERT INTO entries VALUES (?, 'stale', 'm', 0, 1, 0)", (v1_key,)
        )
        conn.commit()
        conn.close()
        with PersistentPromptCache(path) as cache:
            assert not cache.recovered
            assert len(cache) == 0
            assert cache.get("m", 0, "p") is None
            cache.put("m", 0, "p", "fresh")
            assert cache.get("m", 0, "p") == "fresh"

    def test_eviction_follows_insertion_order(self, tmp_path):
        with PersistentPromptCache(
            tmp_path / "c.sqlite", max_entries=2
        ) as cache:
            cache.put("m", 0, "a", "1")
            cache.put("m", 0, "b", "2")
            cache.get("m", 0, "a")  # a read does not refresh a
            cache.put("m", 0, "c", "3")
            assert cache.get("m", 0, "a") is None
            assert cache.get("m", 0, "b") == "2"
            assert cache.get("m", 0, "c") == "3"
            assert cache.evictions == 1
            assert len(cache) == 2

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError):
            PersistentPromptCache(tmp_path / "c.sqlite", max_entries=0)

    def test_clear_resets_entries_and_counters(self, tmp_path):
        with PersistentPromptCache(tmp_path / "c.sqlite") as cache:
            cache.put("m", 0, "p", "answer")
            cache.get("m", 0, "p")
            cache.clear()
            assert len(cache) == 0
            assert cache.stats()["hits"] == 0
            assert cache.hit_rate() == 0.0


class TestPersistentClient:
    def _client(self, tmp_path):
        inner = ScriptedClient({"hello": "world"})
        cache = PersistentPromptCache(tmp_path / "c.sqlite")
        return PersistentClient(inner, cache, shots=0), inner, cache

    def test_miss_calls_through_and_stores(self, tmp_path):
        client, inner, cache = self._client(tmp_path)
        response = client.complete("hello there")
        assert response.text == "world"
        assert response.usage.calls == 1
        assert cache.stores == 1

    def test_hit_costs_zero_tokens(self, tmp_path):
        client, inner, cache = self._client(tmp_path)
        client.complete("hello there")
        response = client.complete("hello there")
        assert response.text == "world"
        assert response.usage == Usage()
        assert cache.hits == 1

    def test_warm_client_over_same_file_never_calls_upstream(self, tmp_path):
        client, _, cache = self._client(tmp_path)
        client.complete("hello there")
        cache.close()
        inner = ScriptedClient({"hello": "UPSTREAM CHANGED"})
        with PersistentPromptCache(tmp_path / "c.sqlite") as warm_cache:
            warm = PersistentClient(inner, warm_cache, shots=0)
            response = warm.complete("hello there")
            # served from disk: the changed upstream is never consulted
            assert response.text == "world"
            assert response.usage.calls == 0

    def test_model_name_forwarded(self, tmp_path):
        client, inner, _ = self._client(tmp_path)
        assert client.model_name == inner.model_name
