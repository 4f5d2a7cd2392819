"""Tests for the prompt cache and caching client."""

import pytest

from repro.llm.cache import CachingClient, PromptCache
from repro.llm.client import ScriptedClient


class TestPromptCache:
    def test_miss_then_hit(self):
        cache = PromptCache()
        assert cache.get("p") is None
        cache.put("p", "answer")
        assert cache.get("p") == "answer"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_exact_match_only(self):
        """Semantically equal but textually different prompts miss (5.5)."""
        cache = PromptCache()
        cache.put("Is the hero from Marvel?", "yes")
        assert cache.get("Does the hero come from Marvel?") is None

    def test_hit_rate(self):
        cache = PromptCache()
        assert cache.hit_rate() == 0.0
        cache.put("a", "1")
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate() == 0.5

    def test_clear(self):
        cache = PromptCache()
        cache.put("a", "1")
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0


class TestCachingClient:
    def test_second_call_costs_nothing(self):
        inner = ScriptedClient(["first"])
        client = CachingClient(inner)
        first = client.complete("prompt")
        second = client.complete("prompt")
        assert first.text == second.text == "first"
        assert first.usage.calls == 1
        assert second.usage.calls == 0
        assert second.usage.input_tokens == 0
        assert len(inner.prompts) == 1

    def test_distinct_prompts_both_reach_model(self):
        inner = ScriptedClient(["a", "b"])
        client = CachingClient(inner)
        assert client.complete("p1").text == "a"
        assert client.complete("p2").text == "b"
        assert len(inner.prompts) == 2

    def test_shared_cache_across_clients(self):
        cache = PromptCache()
        first = CachingClient(ScriptedClient(["x"]), cache)
        second = CachingClient(ScriptedClient([]), cache)
        first.complete("p")
        assert second.complete("p").text == "x"


class TestFailedCalls:
    """A failed call raises its own error and caches nothing, so the
    next call of the prompt goes upstream again."""

    def _faulty(self, plan, answer="the answer"):
        from repro.llm.faults import FaultInjector, FaultyClient

        inner = ScriptedClient({"p": answer})
        return CachingClient(FaultyClient(inner, FaultInjector(plan))), inner

    def test_the_call_after_a_failed_one_pays_and_is_cached(self):
        """Attempt 1 of the prompt faults and attempt 2 passes (a seed
        chosen so the draws land that way): the first call raises, the
        second pays, the third is a hit."""
        from repro.errors import TransientLLMError
        from repro.llm.faults import FaultInjector, FaultPlan

        seed = next(
            s
            for s in range(100)
            if FaultInjector(plan := FaultPlan(transient=0.5, seed=s)).draw("p", 1)
            and FaultInjector(plan).draw("p", 2) is None
        )
        client, inner = self._faulty(FaultPlan(transient=0.5, seed=seed))
        with pytest.raises(TransientLLMError):
            client.complete("p")
        assert len(client.cache) == 0
        paid = client.complete("p")
        hit = client.complete("p")
        assert (paid.text, hit.text) == ("the answer", "the answer")
        assert (paid.usage.calls, hit.usage.calls) == (1, 0)
        assert inner.prompts == ["p"]  # the model answered once
        assert client.cache.entries == {"p": "the answer"}
        assert (client.cache.hits, client.cache.misses) == (1, 2)

    def test_a_retry_below_the_cache_hides_the_fault(self):
        """With retries below the cache, no caller ever sees the fault."""
        from repro.llm.faults import FaultInjector, FaultPlan, FaultyClient
        from repro.llm.resilience import RetryingClient, RetryPolicy
        from repro.vtime import ServiceTimer

        inner = ScriptedClient({"p": "the answer"})
        faulty = FaultyClient(
            inner, FaultInjector(FaultPlan(rate_limit=0.6, seed=0))
        )
        retrying = RetryingClient(
            faulty,
            RetryPolicy(max_attempts=6, base_delay=0.01, jitter=0.0),
            clock=ServiceTimer(),
        )
        client = CachingClient(retrying)
        results = [client.complete("p").text for _ in range(8)]
        assert results == ["the answer"] * 8
        assert inner.prompts == ["p"]  # exactly one real completion

    def test_every_failing_call_raises_its_own_error(self):
        from repro.errors import TransientLLMError
        from repro.llm.faults import FaultPlan

        client, inner = self._faulty(FaultPlan(transient=1.0))
        errors = []
        for _ in range(3):
            with pytest.raises(TransientLLMError) as caught:
                client.complete("p")
            errors.append(caught.value)
        assert len({id(error) for error in errors}) == 3
        assert inner.prompts == []  # faults fire before the model
        assert len(client.cache) == 0  # nothing bogus was cached
        assert (client.cache.hits, client.cache.misses) == (0, 3)


class TestPeek:
    """peek: the batcher's statistics-free prompt probe."""

    def test_returns_entry_without_counting_a_hit(self):
        cache = PromptCache()
        cache.put("p", "answer")
        assert cache.peek("p") == "answer"
        assert cache.hits == 0
        assert cache.misses == 0

    def test_absent_prompt_is_none_without_counting_a_miss(self):
        cache = PromptCache()
        assert cache.peek("p") is None
        assert cache.misses == 0
