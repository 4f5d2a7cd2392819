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


class TestSingleFlightPoisoning:
    """A failing leader must not poison the followers waiting on it."""

    def _faulty(self, plan, answer="the answer"):
        from repro.llm.faults import FaultInjector, FaultPlan, FaultyClient

        inner = ScriptedClient({"p": answer})
        return CachingClient(FaultyClient(inner, FaultInjector(plan))), inner

    def test_followers_reattempt_after_leader_failure(self):
        """Leader's injected fault stays its own; followers still succeed.

        The fault plan faults attempt 1 of the prompt and passes attempt 2
        (seed chosen so the draws land that way), so whichever thread leads
        first fails — and every other thread must recover on its own
        rather than inherit that exception.
        """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.errors import TransientLLMError
        from repro.llm.faults import FaultInjector, FaultPlan

        # find a seed where attempt 1 faults and attempt 2 is clean
        seed = next(
            s
            for s in range(100)
            if FaultInjector(plan := FaultPlan(transient=0.5, seed=s)).draw("p", 1)
            and FaultInjector(plan).draw("p", 2) is None
        )
        client, inner = self._faulty(FaultPlan(transient=0.5, seed=seed))

        threads = 8
        barrier = threading.Barrier(threads)

        def call(_):
            barrier.wait()
            try:
                return client.complete("p").text
            except TransientLLMError:
                return None

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(call, range(threads)))

        failures = results.count(None)
        assert failures >= 1  # somebody led attempt 1 and ate the fault
        # every non-leading thread recovered with the real completion
        assert all(text == "the answer" for text in results if text is not None)
        # the model itself was called exactly once (attempt 2, the clean one)
        assert inner.prompts == ["p"]
        assert client.cache.entries == {"p": "the answer"}

    def test_retrying_leader_shields_all_followers(self):
        """With retries below the cache, no caller ever sees the fault."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.llm.faults import FaultInjector, FaultPlan, FaultyClient
        from repro.vtime import ServiceTimer
        from repro.llm.resilience import RetryingClient, RetryPolicy

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

        threads = 8
        barrier = threading.Barrier(threads)

        def call(_):
            barrier.wait()
            return client.complete("p").text

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(call, range(threads)))

        assert results == ["the answer"] * threads
        assert inner.prompts == ["p"]  # still exactly one real completion

    def test_all_attempts_failing_gives_each_thread_its_own_error(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.errors import TransientLLMError
        from repro.llm.faults import FaultPlan

        client, inner = self._faulty(FaultPlan(transient=1.0))
        threads = 6
        barrier = threading.Barrier(threads)

        def call(_):
            barrier.wait()
            try:
                client.complete("p")
                return "ok"
            except TransientLLMError:
                return "error"

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(call, range(threads)))

        assert results == ["error"] * threads
        assert inner.prompts == []  # faults fire before the model
        assert len(client.cache) == 0  # nothing bogus was cached

    def test_join_accounting_still_counts_hits(self):
        """Single-flight joins count as cache hits even after a failure."""
        from repro.errors import TransientLLMError
        from repro.llm.faults import FaultPlan

        client, _ = self._faulty(FaultPlan(transient=1.0))
        with pytest.raises(TransientLLMError):
            client.complete("p")
        assert client.cache.misses == 1
        assert client.cache.hits == 0
        assert client.single_flight_waits == 0


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
