"""Tests for retries, backoff, circuit breaking, and deadlines.

Every waiting assertion here runs on a :class:`ServiceTimer` — the
backoff schedules below are *measured* as virtual timestamps, and the
whole file sleeps zero real seconds.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CircuitOpenError,
    LLMError,
    RateLimitError,
    RetryBudgetExceededError,
    TransientLLMError,
)
from repro.llm.client import ChatResponse, ScriptedClient
from repro.llm.oracle import stable_uniform
from repro.llm.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceReport,
    RetryingClient,
    RetryPolicy,
)
from repro.llm.usage import Usage
from repro.vtime import MonotonicClock, ServiceTimer


class FailNTimes:
    """A client that raises ``error`` for the first N calls, then answers."""

    def __init__(self, failures: int, error: Exception | None = None) -> None:
        self.remaining = failures
        self.error = error if error is not None else TransientLLMError("boom")
        self.model_name = "flaky"
        self.calls = 0

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return ChatResponse("ok", Usage(1, 1, 1))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=30.0, jitter=0.0)
        assert [policy.delay_for("p", n) for n in (1, 2, 3, 4)] == [
            1.0, 2.0, 4.0, 8.0,
        ]

    def test_cap_applies(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=5.0, jitter=0.0)
        assert policy.delay_for("p", 3) == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=2.0, multiplier=1.0, jitter=0.25, seed=9)
        first = policy.delay_for("the prompt", 1)
        assert first == policy.delay_for("the prompt", 1)  # pure function
        assert 1.5 <= first <= 2.5
        # the exact value is the documented formula
        draw = stable_uniform("backoff", 9, "the prompt", 1)
        assert first == pytest.approx(2.0 * (1.0 + 0.25 * (2.0 * draw - 1.0)))
        # different prompts/attempts decorrelate
        assert policy.delay_for("other", 1) != first

    def test_retry_after_is_a_lower_bound(self):
        policy = RetryPolicy(base_delay=0.5, jitter=0.0)
        assert policy.delay_for("p", 1, retry_after=10.0) == 10.0
        assert policy.delay_for("p", 1, retry_after=0.1) == 0.5


class TestRetryingClient:
    def test_measured_backoff_schedule(self):
        """The virtual timestamps of a 3-failure call are exact."""
        clock = ServiceTimer()
        policy = RetryPolicy(
            max_attempts=4, base_delay=1.0, multiplier=2.0, jitter=0.0
        )
        client = RetryingClient(FailNTimes(3), policy, clock=clock)
        response = client.complete("p")
        assert response.text == "ok"
        # slept 1.0 + 2.0 + 4.0 virtual seconds, nothing more
        assert clock.now() == pytest.approx(7.0)
        assert client.report.as_dict()["retries"] == 3

    def test_jittered_schedule_matches_policy_exactly(self):
        clock = ServiceTimer()
        policy = RetryPolicy(
            max_attempts=4, base_delay=1.0, multiplier=2.0, jitter=0.2, seed=5
        )
        client = RetryingClient(FailNTimes(3), policy, clock=clock)
        client.complete("p")
        expected = sum(policy.delay_for("p", n) for n in (1, 2, 3))
        assert clock.now() == pytest.approx(expected)

    def test_retry_after_hint_stretches_the_wait(self):
        clock = ServiceTimer()
        policy = RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0)
        error = RateLimitError("throttled", retry_after=9.0)
        client = RetryingClient(FailNTimes(1, error), policy, clock=clock)
        client.complete("p")
        assert clock.now() == pytest.approx(9.0)

    def test_budget_exhaustion_wraps_the_last_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        client = RetryingClient(
            FailNTimes(99), policy, clock=ServiceTimer()
        )
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            client.complete("p")
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, TransientLLMError)
        ledger = client.report.as_dict()
        assert ledger["attempts"] == 3
        assert ledger["retries"] == 2
        assert ledger["exhausted"] == 1
        assert client.report.is_accounted()

    def test_non_transient_errors_never_retry(self):
        client = RetryingClient(
            ScriptedClient({}), RetryPolicy(max_attempts=5), clock=ServiceTimer()
        )
        with pytest.raises(LLMError):
            client.complete("unscripted prompt")
        ledger = client.report.as_dict()
        assert ledger == {**ledger, "attempts": 1, "fatal": 1, "retries": 0}
        assert client.report.is_accounted()

    def test_deadline_stops_retrying_early(self):
        clock = ServiceTimer()
        policy = RetryPolicy(max_attempts=10, base_delay=5.0, jitter=0.0)
        client = RetryingClient(
            FailNTimes(99), policy, clock=clock, deadline_seconds=4.0
        )
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            client.complete("p")
        assert "deadline" in str(excinfo.value)
        assert clock.now() == 0.0  # gave up instead of sleeping past it
        assert client.report.is_accounted()

    def test_success_costs_no_virtual_time(self):
        clock = ServiceTimer()
        client = RetryingClient(FailNTimes(0), clock=clock)
        client.complete("p")
        assert clock.now() == 0.0
        assert client.report.as_dict()["successes"] == 1


class TestDeadline:
    def test_remaining_counts_down_on_the_clock(self):
        clock = ServiceTimer()
        deadline = Deadline(10.0, clock)
        assert deadline.remaining() == pytest.approx(10.0)
        clock.sleep(4.0)
        assert deadline.remaining() == pytest.approx(6.0)
        assert not deadline.expired
        clock.sleep(7.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0, ServiceTimer())


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = ServiceTimer()
        defaults = dict(failure_threshold=3, cooldown=10.0, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), clock

    def test_state_transition_table(self):
        """closed --3 failures--> open --cooldown--> half-open --ok--> closed."""
        breaker, clock = self._breaker()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # under threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        assert excinfo.value.retry_after == pytest.approx(10.0)
        clock.sleep(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.before_call()  # the probe is admitted
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # streak broken

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.sleep(10.0)
        breaker.before_call()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_admits_limited_probes(self):
        breaker, clock = self._breaker(half_open_probes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.sleep(10.0)
        breaker.before_call()
        breaker.before_call()
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # third concurrent probe rejected

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)

    def test_trips_feed_the_report(self):
        report = ResilienceReport()
        breaker, _ = self._breaker(report=report)
        for _ in range(3):
            breaker.record_failure()
        assert report.as_dict()["breaker_trips"] == 1


class TestRetryingClientWithBreaker:
    def test_open_breaker_short_circuits_then_recovers(self):
        """Calls fail fast while open, then flow again through half-open."""
        clock = ServiceTimer()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0, clock=clock)
        policy = RetryPolicy(max_attempts=1)
        upstream = FailNTimes(2)
        client = RetryingClient(
            upstream, policy, clock=clock, breaker=breaker
        )
        # two exhausted attempts trip the breaker
        for _ in range(2):
            with pytest.raises(RetryBudgetExceededError):
                client.complete("p")
        assert breaker.state == CircuitBreaker.OPEN
        # while open: short-circuited without touching the upstream
        calls_before = upstream.calls
        with pytest.raises(CircuitOpenError):
            client.complete("p")
        assert upstream.calls == calls_before
        assert client.report.as_dict()["short_circuits"] == 1
        # after the cooldown the probe goes through and closes the breaker
        clock.sleep(60.0)
        assert client.complete("p").text == "ok"
        assert breaker.state == CircuitBreaker.CLOSED
        assert client.report.is_accounted()


class TestMonotonicClock:
    def test_now_advances(self):
        clock = MonotonicClock()
        first = clock.now()
        clock.sleep(0.0)  # zero-second sleep must not actually block
        assert clock.now() >= first
