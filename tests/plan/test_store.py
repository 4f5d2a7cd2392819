"""Tests for the shared mapping store."""

from repro.udf.store import MappingStore

SIG = ("map", "is strong?", "hero", ("name",))


class TestMappingStore:
    def test_full_coverage_served(self):
        store = MappingStore()
        store.put(SIG, {("a",): "yes", ("b",): "no"})
        served = store.lookup(SIG, [("a",), ("b",)])
        assert served == {("a",): "yes", ("b",): "no"}
        assert store.hits == 1
        assert store.keys_served == 2

    def test_partial_coverage_served_per_key(self):
        # the covered key is served; the caller pays only for the other
        store = MappingStore()
        store.put(SIG, {("a",): "yes"})
        assert store.lookup(SIG, [("a",), ("b",)]) == {("a",): "yes"}
        assert store.partial == 1
        assert store.misses == 1
        assert store.hits == 0
        assert store.keys_served == 1

    def test_unknown_signature_misses(self):
        store = MappingStore()
        assert store.lookup(SIG, [("a",)]) == {}
        assert store.misses == 1
        assert store.partial == 0
        assert store.keys_served == 0

    def test_lookup_and_peek_share_one_coverage_rule(self):
        store = MappingStore()
        store.put(SIG, {("a",): "yes", ("c",): None})
        for keys in ([("a",)], [("a",), ("b",), ("c",)], [("b",)], []):
            assert store.lookup(SIG, keys) == store.peek(SIG, keys)

    def test_none_values_count_as_coverage(self):
        # a planned call that produced no usable answer is still an
        # answer — the executor degrades the same way it would have live
        store = MappingStore()
        store.put(SIG, {("a",): None})
        assert store.lookup(SIG, [("a",)]) == {("a",): None}

    def test_puts_merge_and_later_wins(self):
        store = MappingStore()
        store.put(SIG, {("a",): "old", ("b",): "kept"})
        store.put(SIG, {("a",): "new"})
        assert store.lookup(SIG, [("a",), ("b",)]) == {
            ("a",): "new", ("b",): "kept",
        }
        assert store.total_keys() == 2

    def test_subset_lookup_served(self):
        store = MappingStore()
        store.put(SIG, {("a",): "yes", ("b",): "no"})
        assert store.lookup(SIG, [("b",)]) == {("b",): "no"}

    def test_stats_shape(self):
        store = MappingStore()
        store.put(SIG, {("a",): "yes"})
        store.lookup(SIG, [("a",)])
        assert store.stats() == {
            "signatures": 1, "keys": 1, "hits": 1, "misses": 0,
            "partial": 0, "keys_served": 1, "expansion_calls": 0,
            "expansion_matched": 0, "expansion_keys": 0,
        }
        assert len(store) == 1
        assert store.total_keys() == 1


class TestPeek:
    """peek: the batcher's statistics-free, partial-coverage lookup."""

    def test_returns_only_the_covered_subset(self):
        store = MappingStore()
        store.put(SIG, {("a",): "yes"})
        assert store.peek(SIG, [("a",), ("b",)]) == {("a",): "yes"}

    def test_unknown_signature_is_empty(self):
        store = MappingStore()
        assert store.peek(SIG, [("a",)]) == {}

    def test_never_touches_hit_miss_stats(self):
        store = MappingStore()
        store.put(SIG, {("a",): "yes"})
        store.peek(SIG, [("a",)])
        store.peek(SIG, [("b",)])
        assert store.hits == 0
        assert store.misses == 0
        assert store.partial == 0
        assert store.keys_served == 0

    def test_none_values_still_count_as_covered(self):
        store = MappingStore()
        store.put(SIG, {("a",): None})
        assert store.peek(SIG, [("a",)]) == {("a",): None}
