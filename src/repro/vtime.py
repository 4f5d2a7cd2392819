"""Time, real and virtual: the one module that decides how it is computed.

A leaf module (no ``repro.*`` imports) holding the :class:`Clock`
protocol, the only three clocks — real :class:`MonotonicClock`, the
server's :class:`VirtualClock` (never slept on) and the sleepable
virtual :class:`ServiceTimer` — and the latency model.  Every reported
virtual makespan is :func:`parallel_makespan` of the paid call sizes:
an LPT schedule, a function of their multiset, never of thread order.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """A time source a component can both read and wait on."""

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


class VirtualClock:
    """The server's time source: advanced by the event loop, never real."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        if when > self._now:
            self._now = when


class ServiceTimer:
    """A sleepable virtual clock: a start instant plus the time slept since.

    ``sleep`` extends one sequential timeline without real waiting (retry
    backoff, simulated call latency under a tracer).  The server re-arms
    one timer per execution (:meth:`restart`), so waiting spends that
    execution's deadline budget, not the :class:`VirtualClock`.
    Thread-safe.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self.restart(start)

    def restart(self, start: float) -> "ServiceTimer":
        with self._lock:
            self.start = start
            self.elapsed = 0.0
        return self

    def now(self) -> float:
        with self._lock:
            return self.start + self.elapsed

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.elapsed += max(0.0, seconds)


@dataclass(frozen=True)
class LatencyModel:
    """A simple affine latency model for one LLM call (seconds).

    latency = base + per_input_token * in + per_output_token * out.
    Defaults approximate hosted GPT-class API behaviour: fixed overhead
    plus generation dominated by output tokens.
    """

    base_seconds: float = 0.5
    per_input_token: float = 0.00002
    per_output_token: float = 0.02

    def call_latency(self, input_tokens: int, output_tokens: int) -> float:
        return (
            self.base_seconds
            + self.per_input_token * input_tokens
            + self.per_output_token * output_tokens
        )


def sequential_makespan(
    calls: Iterable[tuple[int, int]], model: LatencyModel | None = None
) -> float:
    """Total latency when calls run one after another."""
    model = model or LatencyModel()
    return sum(model.call_latency(i, o) for i, o in calls)


def parallel_makespan(
    calls: Iterable[tuple[int, int]],
    workers: int,
    model: LatencyModel | None = None,
) -> float:
    """Makespan under ``workers`` concurrent connections (LPT greedy).

    Uses longest-processing-time-first assignment onto the least loaded
    worker, the standard 4/3-approximation for makespan scheduling.  The
    durations are sorted first, so the result depends only on the
    multiset of call sizes, never on the order they were paid in.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    model = model or LatencyModel()
    durations = sorted(
        (model.call_latency(i, o) for i, o in calls), reverse=True
    )
    loads = [0.0] * workers
    heapq.heapify(loads)
    for duration in durations:
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration)
    return max(loads) if loads else 0.0
