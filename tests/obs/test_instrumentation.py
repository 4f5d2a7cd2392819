"""The telemetry each LLM-stack component actually emits."""

import pytest

from repro.errors import (
    LLMError,
    RetryBudgetExceededError,
    TransientLLMError,
)
from repro.llm.cache import CachingClient, PromptCache
from repro.llm.client import ChatResponse, ScriptedClient
from repro.llm.parallel import ParallelDispatcher
from repro.llm.resilience import CircuitBreaker, RetryPolicy, RetryingClient
from repro.obs import Telemetry
from repro.vtime import ServiceTimer


def enabled_telemetry():
    return Telemetry.on(ServiceTimer())


class FlakyClient:
    """Fails transiently ``failures`` times, then succeeds forever."""

    model_name = "flaky"

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientLLMError("glitch")
        from repro.llm.usage import Usage

        return ChatResponse("ok", Usage(1, 1, 1))


class TestCachingClientTelemetry:
    def test_hit_miss_counters_and_spans(self):
        tel = enabled_telemetry()
        client = CachingClient(
            ScriptedClient(["a"]), telemetry=tel
        )
        client.complete("p")
        client.complete("p")
        assert tel.metrics.value("llm.cache.misses") == 1
        assert tel.metrics.value("llm.cache.hits") == 1
        outcomes = [
            s.attributes["outcome"]
            for s in tel.tracer.spans
            if s.name == "llm:cache"
        ]
        assert outcomes == ["miss", "hit"]

    def test_disabled_records_nothing(self):
        client = CachingClient(ScriptedClient(["a"]))
        client.complete("p")
        client.complete("p")
        # plain cache accounting still works without telemetry
        assert client.cache.hits == 1
        assert client.cache.misses == 1

    def test_results_identical_with_and_without_telemetry(self):
        plain = CachingClient(ScriptedClient(["a", "b"]))
        traced = CachingClient(
            ScriptedClient(["a", "b"]), telemetry=enabled_telemetry()
        )
        for prompt in ("p1", "p2", "p1"):
            assert plain.complete(prompt).text == traced.complete(prompt).text
        assert plain.cache.hits == traced.cache.hits
        assert plain.cache.misses == traced.cache.misses


class TestRetryingClientTelemetry:
    def test_attempt_spans_and_counters(self):
        tel = enabled_telemetry()
        clock = ServiceTimer()
        client = RetryingClient(
            FlakyClient(2),
            RetryPolicy(max_attempts=4, jitter=0.0),
            clock=clock,
            telemetry=tel,
        )
        assert client.complete("p").text == "ok"
        assert tel.metrics.value("llm.retry.attempts") == 3
        assert tel.metrics.value("llm.retry.retries") == 2
        assert tel.metrics.value("llm.retry.successes") == 1
        outcomes = [
            s.attributes["outcome"]
            for s in tel.tracer.spans
            if s.name == "llm:attempt"
        ]
        assert outcomes == ["retry", "retry", "success"]

    def test_backoff_spans_carry_delay(self):
        # tracer and retry layer share one virtual clock, so the backoff
        # wait is visible as the backoff span's duration
        clock = ServiceTimer()
        tel = Telemetry.on(clock)
        client = RetryingClient(
            FlakyClient(1),
            RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
            clock=clock,
            telemetry=tel,
        )
        client.complete("p")
        backoffs = [s for s in tel.tracer.spans if s.name == "llm:backoff"]
        assert len(backoffs) == 1
        assert backoffs[0].attributes["delay_s"] == 0.5
        # the virtual wait really happened inside the backoff span
        assert backoffs[0].duration == pytest.approx(0.5)
        assert tel.metrics.value("llm.retry.backoff_seconds_total") == 0.5
        hist = tel.metrics.histogram("llm.retry.backoff_seconds")
        assert hist.count == 1

    def test_exhausted_outcome(self):
        tel = enabled_telemetry()
        client = RetryingClient(
            FlakyClient(10),
            RetryPolicy(max_attempts=2, jitter=0.0),
            clock=ServiceTimer(),
            telemetry=tel,
        )
        with pytest.raises(RetryBudgetExceededError):
            client.complete("p")
        assert tel.metrics.value("llm.retry.exhausted") == 1
        last = [s for s in tel.tracer.spans if s.name == "llm:attempt"][-1]
        assert last.attributes["outcome"] == "exhausted"

    def test_fatal_outcome(self):
        tel = enabled_telemetry()
        client = RetryingClient(
            ScriptedClient([]),  # scripting miss raises plain LLMError
            RetryPolicy(max_attempts=3),
            clock=ServiceTimer(),
            telemetry=tel,
        )
        with pytest.raises(LLMError):
            client.complete("p")
        assert tel.metrics.value("llm.retry.fatal") == 1
        assert tel.metrics.value("llm.retry.attempts") == 1


class TestBreakerTelemetry:
    def test_state_gauge_and_transitions(self):
        tel = enabled_telemetry()
        clock = ServiceTimer()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=10.0, clock=clock, telemetry=tel
        )
        breaker.record_failure()
        breaker.record_failure()  # trips open
        assert tel.metrics.value("llm.breaker.state") == 2
        assert tel.metrics.value("llm.breaker.trips") == 1
        assert (
            tel.metrics.value(
                "llm.breaker.transitions", from_state="closed", to_state="open"
            )
            == 1
        )
        clock.sleep(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert tel.metrics.value("llm.breaker.state") == 1
        breaker.record_success()
        assert tel.metrics.value("llm.breaker.state") == 0
        assert (
            tel.metrics.value(
                "llm.breaker.transitions",
                from_state="half_open",
                to_state="closed",
            )
            == 1
        )

    def test_short_circuit_metric(self):
        from repro.errors import CircuitOpenError

        tel = enabled_telemetry()
        clock = ServiceTimer()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.record_failure()
        client = RetryingClient(
            FlakyClient(0),
            clock=clock,
            breaker=breaker,
            telemetry=tel,
        )
        with pytest.raises(CircuitOpenError):
            client.complete("p")
        assert tel.metrics.value("llm.retry.short_circuits") == 1


class TestDispatcherTelemetry:
    def test_call_spans_parented_under_dispatch(self):
        tel = enabled_telemetry()
        dispatcher = ParallelDispatcher(1, telemetry=tel)
        client = ScriptedClient({"p1": "a", "p2": "b"})
        dispatcher.dispatch(client, ["p1", "p2"], labels="stage")
        (dispatch,) = [s for s in tel.tracer.spans if s.name == "dispatch"]
        calls = [s for s in tel.tracer.spans if s.name == "llm:call"]
        assert len(calls) == 2
        assert all(c.parent_id == dispatch.span_id for c in calls)
        assert dispatch.attributes["prompts"] == 2

    def test_call_spans_cross_thread_parenting(self):
        tel = enabled_telemetry()
        dispatcher = ParallelDispatcher(4, telemetry=tel)
        client = ScriptedClient({"p1": "a", "p2": "b", "p3": "c"})
        dispatcher.dispatch(client, ["p1", "p2", "p3"])
        (dispatch,) = [s for s in tel.tracer.spans if s.name == "dispatch"]
        assert len(dispatch.children) == 3

    def test_dedup_and_occupancy_metrics(self):
        tel = enabled_telemetry()
        dispatcher = ParallelDispatcher(1, telemetry=tel)
        client = ScriptedClient({"p1": "a"})
        dispatcher.dispatch(client, ["p1", "p1", "p1"])
        assert tel.metrics.value("dispatch.dispatches") == 1
        assert tel.metrics.value("dispatch.calls") == 1
        assert tel.metrics.value("dispatch.dedup_followers") == 2
        snap = tel.metrics.snapshot()
        assert snap["dispatch.in_flight.max"] == 1
        assert snap["dispatch.queue_depth"] == 0

    def test_token_counters_by_stage(self):
        tel = enabled_telemetry()
        dispatcher = ParallelDispatcher(1, telemetry=tel)
        client = ScriptedClient({"p1": "a b c"})
        dispatcher.dispatch(client, ["p1"], labels="udf:map")
        assert tel.metrics.value("llm.calls", stage="udf:map") == 1
        assert tel.metrics.value("llm.tokens.output", stage="udf:map") > 0
        (call,) = [s for s in tel.tracer.spans if s.name == "llm:call"]
        assert call.attributes["output_tokens"] > 0
        assert call.attributes["cached"] is False

    def test_error_metric_and_span_attr(self):
        tel = enabled_telemetry()
        dispatcher = ParallelDispatcher(1, telemetry=tel)
        client = ScriptedClient({})  # every prompt is a scripting miss
        outcomes = dispatcher.dispatch(client, ["p1"], capture_errors=True)
        assert not outcomes[0].ok
        assert tel.metrics.value("dispatch.errors") == 1
        (call,) = [s for s in tel.tracer.spans if s.name == "llm:call"]
        assert call.attributes["error"] == "LLMError"

    def test_disabled_dispatch_identical_results(self):
        plain = ParallelDispatcher(1)
        traced = ParallelDispatcher(1, telemetry=enabled_telemetry())
        client_a = ScriptedClient({"p": "x"})
        client_b = ScriptedClient({"p": "x"})
        a = plain.dispatch(client_a, ["p", "p"])
        b = traced.dispatch(client_b, ["p", "p"])
        assert [o.text for o in a] == [o.text for o in b]
