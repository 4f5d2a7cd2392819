"""Tests for query rewriting over the mapping store (Sections 4.3 and 5.5)."""

import pytest

from repro.llm.chat import MockChatModel
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.llm.usage import UsageMeter
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor
from repro.udf.store import MappingStore, equivalence_prompt

from tests.conftest import make_model


HEIGHT_Q1 = "What is the height in centimeters of this football player?"
HEIGHT_Q2 = "How tall is this football player in centimeters?"
WEIGHT_Q = "What is the weight in kilograms of this football player?"


@pytest.fixture()
def football_client(football_world):
    return make_model(football_world)


@pytest.fixture()
def pay(football_client):
    """The one-prompt paying function a rewrite lookup is handed."""
    return lambda prompt, label: football_client.complete(prompt, label=label).text


class TestEquivalenceProtocol:
    def test_equivalent_phrasings_yes(self, football_client):
        prompt = equivalence_prompt(HEIGHT_Q1, HEIGHT_Q2)
        assert football_client.complete(prompt).text == "yes"

    def test_different_attributes_no(self, football_client):
        prompt = equivalence_prompt(HEIGHT_Q1, WEIGHT_Q)
        assert football_client.complete(prompt).text == "no"

    def test_unresolvable_is_no(self, football_client):
        prompt = equivalence_prompt(HEIGHT_Q1, "What is the meaning of life?")
        assert football_client.complete(prompt).text == "no"


def signature(question: str) -> tuple:
    return ("LLMMap", question, "player", ("player_name",))


class TestRewriteLookup:
    def test_exact_hit(self, football_client, pay):
        store = MappingStore(rewrite=True)
        store.put(signature(HEIGHT_Q1), {("A",): "180"})
        reused = store.rewrite_lookup(signature(HEIGHT_Q1), [("A",), ("B",)], pay)
        assert reused == {("A",): "180"}
        assert store.rewrite_stats.exact_hits == 1
        assert store.rewrite_stats.keys_reused == 1
        assert football_client.meter.total.calls == 0

    def test_rewrite_across_phrasings(self, football_client, pay):
        store = MappingStore(rewrite=True)
        store.put(signature(HEIGHT_Q1), {("A",): "180"})
        reused = store.rewrite_lookup(signature(HEIGHT_Q2), [("A",)], pay)
        assert reused == {("A",): "180"}
        assert store.rewrite_stats.rewrites == 1
        assert football_client.meter.total.calls == 1

    def test_different_attribute_rejected(self, pay):
        store = MappingStore(rewrite=True)
        store.put(signature(HEIGHT_Q1), {("A",): "180"})
        reused = store.rewrite_lookup(signature(WEIGHT_Q), [("A",)], pay)
        assert reused == {}
        assert store.rewrite_stats.rejected_rewrites == 1
        assert store.rewrite_stats.misses == 1

    def test_miss_on_empty_cache(self, football_client, pay):
        store = MappingStore(rewrite=True)
        reused = store.rewrite_lookup(signature(HEIGHT_Q1), [("A",)], pay)
        assert reused == {}
        assert store.rewrite_stats.misses == 1
        assert football_client.meter.total.calls == 0

    def test_failed_equivalence_call_is_a_rejected_rewrite(self):
        """A skipped or failed check confirms nothing: nothing is reused."""
        store = MappingStore(rewrite=True)
        store.put(signature(HEIGHT_Q1), {("A",): "180"})
        asked = []

        def fail(prompt, label):
            asked.append(label)
            return None

        assert store.rewrite_lookup(signature(HEIGHT_Q2), [("A",)], fail) == {}
        assert asked == ["udf:rewrite"]
        assert store.rewrite_stats.rejected_rewrites == 1
        assert store.rewrite_stats.misses == 1
        assert store.rewrite_stats.keys_reused == 0

    def test_store_extends_existing(self, pay):
        store = MappingStore(rewrite=True)
        store.put(signature(HEIGHT_Q1), {("A",): "180"})
        store.put(signature(HEIGHT_Q1), {("B",): "190"})
        assert len(store) == 1
        assert store.rewrite_lookup(
            signature(HEIGHT_Q1), [("A",), ("B",)], pay
        ) == {("A",): "180", ("B",): "190"}

    def test_another_table_is_never_a_candidate(self, football_client, pay):
        """The same question over another table: an overlapping key there
        may name another entity, so nothing is reused and nothing asked."""
        store = MappingStore(rewrite=True)
        store.put(signature(HEIGHT_Q1), {("A",): "180"})
        elsewhere = ("LLMMap", HEIGHT_Q1, "team", ("player_name",))
        assert store.rewrite_lookup(elsewhere, [("A",)], pay) == {}
        assert football_client.meter.total.calls == 0
        assert store.rewrite_stats.misses == 1
        assert store.rewrite_stats.keys_reused == 0


class TestExecutorIntegration:
    def test_rewrite_saves_calls(self, football_world):
        meter = UsageMeter()
        model = MockChatModel(
            KnowledgeOracle(football_world), get_profile("perfect"), meter=meter
        )
        store = MappingStore(rewrite=True)
        with build_curated_database(football_world) as db:
            executor = HybridQueryExecutor(
                db, model, football_world, mapping_store=store
            )
            first = executor.execute(
                f"SELECT MAX(CAST({{{{LLMMap('{HEIGHT_Q1}', "
                "'player::player_name')}} AS INTEGER)) FROM player"
            )
            calls_after_first = meter.total.calls
            second = executor.execute(
                "SELECT COUNT(*) FROM player WHERE "
                f"CAST({{{{LLMMap('{HEIGHT_Q2}', "
                "'player::player_name')}} AS INTEGER) > 180"
            )
            rewrite_overhead = meter.total.calls - calls_after_first
        # the second query reused every height: only the equivalence
        # check itself reached the model
        assert rewrite_overhead == 1
        assert store.rewrite_stats.keys_reused == len(
            football_world.truth["player_info"]
        )
        assert first.scalar() is not None
        assert second.scalar() is not None

    def test_results_identical_with_and_without(self, football_world, swan):
        question = swan.question("european_football_q02")
        results = []
        for store in (None, MappingStore(rewrite=True)):
            with build_curated_database(football_world) as db:
                executor = HybridQueryExecutor(
                    db, make_model(football_world, "gpt-4-turbo"),
                    football_world, mapping_store=store,
                )
                results.append(sorted(executor.execute(question.blend_sql).rows))
        assert results[0] == results[1]
