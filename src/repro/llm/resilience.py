"""Resilient LLM dispatch: retries, backoff, circuit breaking, deadlines.

The paper's pipelines assume every LLM call returns; production traffic
does not.  This module is the layer between the pipelines and that
reality:

- :class:`RetryPolicy` + :class:`RetryingClient` — exponential backoff
  with *deterministic* jitter (a pure function of ``(seed, prompt,
  attempt)``, no RNG stream) and a bounded attempt budget.  Transient
  errors (:class:`~repro.errors.TransientLLMError` and subclasses) are
  retried, honouring ``retry_after`` hints; anything else propagates
  immediately.  When the budget is spent the last transient error is
  wrapped in :class:`~repro.errors.RetryBudgetExceededError` — fatal to
  callers, so degradation decisions happen exactly once.
- :class:`CircuitBreaker` — per-model closed/open/half-open breaker with
  a clock-driven cooldown: after ``failure_threshold`` consecutive
  failures it fails fast (:class:`~repro.errors.CircuitOpenError`,
  ``retry_after`` = remaining cooldown) instead of hammering a dying
  upstream, then recovers through a limited number of half-open probes.
- :class:`Deadline` — a wall-clock budget for one logical call: retrying
  stops early when the next backoff would overrun it.
- :class:`ResilienceReport` — thread-safe counters for every attempt,
  retry, exhaustion, breaker trip, and degraded row, with the invariant
  ``attempts == successes + retries + exhausted`` checkable at any time.

Every time source goes through the :class:`Clock` protocol.  Production
uses :class:`MonotonicClock` (real ``time.sleep``); tests use
:class:`~repro.llm.parallel.SimulatedClock`, whose ``sleep`` advances
virtual time — full backoff schedules are asserted against timestamps
without sleeping a single real millisecond.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from repro.errors import (
    CircuitOpenError,
    LLMError,
    RetryBudgetExceededError,
    TransientLLMError,
)
from repro.llm.client import ChatClient, ChatResponse
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_SPAN
from repro.stable import stable_uniform


@runtime_checkable
class Clock(Protocol):
    """A time source the resilience layer can both read and wait on."""

    def now(self) -> float:
        """Monotonic seconds since an arbitrary origin."""
        ...  # pragma: no cover - protocol

    def sleep(self, seconds: float) -> None:
        """Block (really or virtually) for ``seconds``."""
        ...  # pragma: no cover - protocol


class MonotonicClock:
    """Real time: ``now`` is ``time.monotonic``, ``sleep`` really sleeps."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient failures.

    The delay before retrying attempt ``n`` (1-based) is::

        min(max_delay, base_delay * multiplier ** (n - 1))

    stretched by a deterministic jitter factor in ``[1 - jitter,
    1 + jitter]`` drawn from ``(seed, prompt, n)``, then raised to any
    ``retry_after`` hint the error carried.  Determinism makes schedules
    assertable in tests and identical across runs and worker counts.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_for(
        self, prompt: str, attempt: int, *, retry_after: Optional[float] = None
    ) -> float:
        """Seconds to wait after failed attempt ``attempt`` of ``prompt``."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            draw = stable_uniform("backoff", self.seed, prompt, attempt)
            delay *= 1.0 + self.jitter * (2.0 * draw - 1.0)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay


class Deadline:
    """A budget of seconds for one logical call, measured on a clock."""

    def __init__(self, seconds: float, clock: Clock) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {seconds}")
        self.seconds = seconds
        self.clock = clock
        self._start = clock.now()

    def remaining(self) -> float:
        return max(0.0, self.seconds - (self.clock.now() - self._start))

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


@dataclass
class ResilienceReport:
    """Thread-safe attempt accounting for one run.

    Every upstream attempt ends in exactly one of four ways — success,
    retry (transient failure, will be re-attempted), exhaustion
    (transient failure, budget spent), or fatal (a non-transient error
    that retrying cannot help) — so ``attempts == successes + retries +
    exhausted + fatal`` always holds; :meth:`is_accounted` checks it.
    Breaker short-circuits happen *instead of* an attempt and are counted
    separately, as are the rows and batches the pipelines degraded to
    NULLs.
    """

    attempts: int = 0
    successes: int = 0
    retries: int = 0
    exhausted: int = 0
    fatal: int = 0
    short_circuits: int = 0
    breaker_trips: int = 0
    degraded_batches: int = 0
    degraded_rows: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_attempt(self) -> None:
        with self._lock:
            self.attempts += 1

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def record_exhausted(self) -> None:
        with self._lock:
            self.exhausted += 1

    def record_fatal(self) -> None:
        with self._lock:
            self.fatal += 1

    def record_short_circuit(self) -> None:
        with self._lock:
            self.short_circuits += 1

    def record_trip(self) -> None:
        with self._lock:
            self.breaker_trips += 1

    def record_degraded(self, rows: int, *, batches: int = 1) -> None:
        with self._lock:
            self.degraded_batches += batches
            self.degraded_rows += rows

    def is_accounted(self) -> bool:
        with self._lock:
            return self.attempts == (
                self.successes + self.retries + self.exhausted + self.fatal
            )

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "attempts": self.attempts,
                "successes": self.successes,
                "retries": self.retries,
                "exhausted": self.exhausted,
                "fatal": self.fatal,
                "short_circuits": self.short_circuits,
                "breaker_trips": self.breaker_trips,
                "degraded_batches": self.degraded_batches,
                "degraded_rows": self.degraded_rows,
            }


class CircuitBreaker:
    """A closed/open/half-open breaker for one upstream model.

    - **closed**: calls flow; ``failure_threshold`` *consecutive*
      failures trip it open.
    - **open**: :meth:`before_call` fails fast with
      :class:`~repro.errors.CircuitOpenError` until ``cooldown`` seconds
      have passed on the clock, then the breaker half-opens.
    - **half-open**: up to ``half_open_probes`` in-flight probes are let
      through; a probe success closes the breaker, a probe failure
      re-opens it for another cooldown.

    Thread-safe; share one instance per upstream model.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    #: numeric encoding for the state gauge (closed < half-open < open)
    _STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        half_open_probes: int = 1,
        clock: Optional[Clock] = None,
        report: Optional[ResilienceReport] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown <= 0:
            raise ValueError(f"cooldown must be > 0, got {cooldown}")
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self.clock = clock if clock is not None else MonotonicClock()
        self.report = report
        self.trips = 0
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes = 0
        self._lock = threading.Lock()
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_state = self._tel.metrics.gauge("llm.breaker.state")
        self._m_trips = self._tel.metrics.counter("llm.breaker.trips")

    def _transition(self, old: str, new: str) -> None:
        # caller holds the lock; metric/timeseries/flight locks are
        # leaves, so nesting is safe
        self._state = new
        self._m_state.set(self._STATE_VALUES[new])
        if self._tel.enabled:
            self._tel.metrics.counter(
                "llm.breaker.transitions", from_state=old, to_state=new
            ).inc()
            now = self.clock.now()
            if self._tel.timeseries.enabled:
                self._tel.timeseries.record(
                    "llm.breaker.transitions", now,
                    from_state=old, to_state=new,
                )
            self._tel.flight.record(
                now, "breaker", from_state=old, to_state=new
            )

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        # caller holds the lock
        if (
            self._state == self.OPEN
            and self.clock.now() - self._opened_at >= self.cooldown
        ):
            self._transition(self.OPEN, self.HALF_OPEN)
            self._probes = 0

    def before_call(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.OPEN:
                remaining = self.cooldown - (self.clock.now() - self._opened_at)
                raise CircuitOpenError(
                    "circuit breaker is open", retry_after=max(remaining, 0.0)
                )
            if self._state == self.HALF_OPEN:
                if self._probes >= self.half_open_probes:
                    raise CircuitOpenError(
                        "circuit breaker is half-open and fully probed"
                    )
                self._probes += 1

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self._transition(self.HALF_OPEN, self.CLOSED)
                self._probes = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        # caller holds the lock
        self._transition(self._state, self.OPEN)
        self._opened_at = self.clock.now()
        self._consecutive_failures = 0
        self._probes = 0
        self.trips += 1
        self._m_trips.inc()
        if self.report is not None:
            self.report.record_trip()


class RetryingClient:
    """A ChatClient decorator that retries transient failures.

    Wrap it *under* the caching layer (cache → retrying → faulty/real
    model): cache hits then never pay retry latency, and every upstream
    miss gets the full budget.  With an attached :class:`CircuitBreaker`,
    calls check the breaker before each attempt and feed it every
    outcome; with ``deadline_seconds``, retrying stops early when the
    next backoff would overrun the budget.  All waiting goes through the
    clock, so tests drive it in virtual time.
    """

    def __init__(
        self,
        inner: ChatClient,
        policy: Optional[RetryPolicy] = None,
        *,
        clock: Optional[Clock] = None,
        breaker: Optional[CircuitBreaker] = None,
        deadline_seconds: Optional[float] = None,
        report: Optional[ResilienceReport] = None,
        telemetry: Optional[Telemetry] = None,
        provenance=None,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else MonotonicClock()
        self.breaker = breaker
        self.deadline_seconds = deadline_seconds
        self.report = report if report is not None else ResilienceReport()
        self.model_name = inner.model_name
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        metrics = self._tel.metrics
        self._m_attempts = metrics.counter("llm.retry.attempts")
        self._m_successes = metrics.counter("llm.retry.successes")
        self._m_retries = metrics.counter("llm.retry.retries")
        self._m_exhausted = metrics.counter("llm.retry.exhausted")
        self._m_fatal = metrics.counter("llm.retry.fatal")
        self._m_short = metrics.counter("llm.retry.short_circuits")
        self._m_backoff_total = metrics.counter("llm.retry.backoff_seconds_total")
        self._m_backoff = metrics.histogram("llm.retry.backoff_seconds")

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Complete with retries; every attempt lands in the report."""
        deadline = (
            Deadline(self.deadline_seconds, self.clock)
            if self.deadline_seconds is not None
            else None
        )
        tel = self._tel
        attempt = 0
        while True:
            attempt += 1
            delay: Optional[float] = None
            with (
                tel.tracer.span("llm:attempt", attempt=attempt, label=label)
                if tel.enabled
                else NULL_SPAN
            ) as span:
                if self.breaker is not None:
                    try:
                        self.breaker.before_call()
                    except CircuitOpenError:
                        self.report.record_short_circuit()
                        self._m_short.inc()
                        span.set("outcome", "short_circuit")
                        raise
                self.report.record_attempt()
                self._m_attempts.inc()
                try:
                    response = self.inner.complete(prompt, label=label)
                except TransientLLMError as exc:
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    if attempt >= self.policy.max_attempts:
                        self.report.record_exhausted()
                        self._m_exhausted.inc()
                        span.set("outcome", "exhausted")
                        raise RetryBudgetExceededError(
                            f"gave up after {attempt} attempts: {exc}",
                            attempts=attempt,
                        ) from exc
                    delay = self.policy.delay_for(
                        prompt, attempt, retry_after=exc.retry_after
                    )
                    if deadline is not None and delay > deadline.remaining():
                        self.report.record_exhausted()
                        self._m_exhausted.inc()
                        span.set("outcome", "exhausted")
                        raise RetryBudgetExceededError(
                            f"deadline of {deadline.seconds:g}s would be overrun "
                            f"by a {delay:.3f}s backoff after {attempt} attempts: "
                            f"{exc}",
                            attempts=attempt,
                        ) from exc
                    if self._prov.enabled:
                        self._prov.record_retry(prompt, type(exc).__name__)
                    self.report.record_retry()
                    self._m_retries.inc()
                    self._m_backoff_total.inc(delay)
                    self._m_backoff.observe(delay)
                    if tel.timeseries.enabled:
                        now = self.clock.now()
                        tel.timeseries.record("llm.retries", now)
                        tel.timeseries.observe(
                            "llm.backoff_seconds", now, delay
                        )
                    span.set("outcome", "retry")
                    span.set("backoff_s", delay)
                except LLMError:
                    # not retryable (bad request, scripting miss, ...): the
                    # attempt still lands in the ledger, then propagates
                    self.report.record_fatal()
                    self._m_fatal.inc()
                    span.set("outcome", "fatal")
                    raise
                else:
                    if self.breaker is not None:
                        self.breaker.record_success()
                    self.report.record_success()
                    self._m_successes.inc()
                    span.set("outcome", "success")
                    return response
            # only the retry path reaches here: wait out the backoff in
            # its own span so the time is attributed, then re-attempt
            assert delay is not None
            if tel.enabled:
                with tel.tracer.span("llm:backoff", delay_s=delay):
                    self.clock.sleep(delay)
            else:
                self.clock.sleep(delay)
