"""Concurrency regression tests for the parallel dispatch subsystem.

The guarantees under test, per ISSUE 1:

- UsageMeter totals are exact under contention;
- the dispatcher preserves prompt order, captures per-call errors, and
  dedups duplicate prompts within a dispatch;
- four workers really hold four calls in flight at once;
- the virtual clock sums what it sleeps, and only paid calls sleep.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import LLMError
from repro.llm.cache import CachingClient
from repro.llm.client import ChatResponse, ScriptedClient
from repro.llm.parallel import (
    DelayedClient,
    ParallelDispatcher,
    SimulatedLatencyClient,
)
from repro.llm.usage import Usage, UsageMeter
from repro.obs import MetricsRegistry, Telemetry
from repro.vtime import LatencyModel, ServiceTimer


class CountingClient:
    """Echoes each prompt after a small delay, counting upstream calls."""

    model_name = "counting"

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls_by_prompt: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.calls_by_prompt[prompt] = self.calls_by_prompt.get(prompt, 0) + 1
        return ChatResponse(f"echo:{prompt}", Usage(1, 1, 1))


class FailingClient:
    """Raises LLMError for prompts containing 'bad'."""

    model_name = "failing"

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        if "bad" in prompt:
            raise LLMError(f"scripted failure for {prompt!r}")
        return ChatResponse(f"ok:{prompt}", Usage(1, 1, 1))


class TestUsageMeterContention:
    def test_totals_exact_under_contention(self):
        meter = UsageMeter()
        threads, per_thread = 8, 200
        barrier = threading.Barrier(threads)

        def record(thread_index: int) -> None:
            barrier.wait()
            for _ in range(per_thread):
                meter.record(3, 5, label=f"t{thread_index % 2}")

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(record, range(threads)))

        calls = threads * per_thread
        assert meter.total == Usage(3 * calls, 5 * calls, calls)
        by_label = meter.by_label
        assert by_label["t0"] + by_label["t1"] == meter.total


class TestParallelDispatcher:
    def test_results_in_prompt_order(self):
        client = CountingClient(delay=0.005)
        dispatcher = ParallelDispatcher(workers=8)
        prompts = [f"p{i}" for i in range(20)]
        outcomes = dispatcher.dispatch(client, prompts)
        assert [o.text for o in outcomes] == [f"echo:p{i}" for i in range(20)]

    def test_error_capture_does_not_abort_siblings(self):
        dispatcher = ParallelDispatcher(workers=4)
        prompts = ["fine one", "a bad one", "fine two"]
        outcomes = dispatcher.dispatch(FailingClient(), prompts)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, LLMError)
        assert outcomes[1].text is None

    def test_transient_mode_raises_first_plain_error(self):
        dispatcher = ParallelDispatcher(workers=4)
        with pytest.raises(LLMError, match="bad early"):
            dispatcher.dispatch(
                FailingClient(),
                ["ok", "bad early", "bad late"],
                capture_errors="transient",
            )

    @pytest.mark.parametrize("mode", [False, "all"])
    def test_unknown_capture_mode_rejected_before_any_call(self, mode):
        client = CountingClient()
        with pytest.raises(ValueError, match="capture_errors"):
            ParallelDispatcher(workers=1).dispatch(
                client, ["p"], capture_errors=mode
            )
        assert client.calls_by_prompt == {}

    def test_duplicate_prompts_dispatched_once(self):
        client = CountingClient()
        dispatcher = ParallelDispatcher(workers=4)
        outcomes = dispatcher.dispatch(client, ["same", "same", "other", "same"])
        assert client.calls_by_prompt == {"same": 1, "other": 1}
        assert [o.text for o in outcomes] == [
            "echo:same", "echo:same", "echo:other", "echo:same",
        ]
        # the copies are free; only the first occurrence paid tokens
        paid = [o for o in outcomes if o.response.usage.calls]
        assert len(paid) == 2

    def test_per_prompt_labels(self):
        recorded: list[str] = []
        lock = threading.Lock()

        class LabelClient:
            model_name = "labels"

            def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
                with lock:
                    recorded.append(label)
                return ChatResponse("x", Usage(1, 1, 1))

        dispatcher = ParallelDispatcher(workers=2)
        dispatcher.dispatch(LabelClient(), ["a", "b"], labels=["la", "lb"])
        assert sorted(recorded) == ["la", "lb"]
        with pytest.raises(ValueError):
            dispatcher.dispatch(LabelClient(), ["a", "b"], labels=["only-one"])

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelDispatcher(workers=0)

    def test_empty_dispatch(self):
        assert ParallelDispatcher(workers=4).dispatch(CountingClient(), []) == []


class TestRealOverlap:
    def test_four_workers_hold_four_calls_at_once(self):
        """Each call waits at a 4-party barrier: the dispatch completes
        only if four calls are in flight together."""
        barrier = threading.Barrier(4, timeout=5)

        class BarrierClient:
            model_name = "barrier"

            def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
                barrier.wait()
                return ChatResponse(f"ok:{prompt}", Usage(1, 1, 1))

        telemetry = Telemetry(metrics=MetricsRegistry())
        dispatcher = ParallelDispatcher(workers=4, telemetry=telemetry)
        prompts = [f"p{i}" for i in range(4)]
        outcomes = dispatcher.dispatch(BarrierClient(), prompts)
        assert [o.text for o in outcomes] == [f"ok:{p}" for p in prompts]
        assert telemetry.metrics.snapshot()["dispatch.in_flight.max"] == 4


class TestServiceTimer:
    def test_sequential_is_sum(self):
        clock = ServiceTimer()
        for duration in (1.0, 2.0, 3.0):
            clock.sleep(duration)
        assert clock.now() == pytest.approx(6.0)

    def test_latency_client_advances_only_paid_calls(self):
        clock = ServiceTimer()
        model = LatencyModel(base_seconds=1.0, per_input_token=0, per_output_token=0)
        inner = CachingClient(CountingClient())
        client = SimulatedLatencyClient(inner, clock, model)
        client.complete("p")   # paid: sleeps 1s
        client.complete("p")   # cache hit: free in time too
        assert clock.now() == pytest.approx(1.0)


class TestDelayedClient:
    def test_sleeps_and_counts(self):
        client = DelayedClient(ScriptedClient(["one"]), delay_seconds=0.01)
        start = time.perf_counter()
        response = client.complete("p")
        assert time.perf_counter() - start >= 0.01
        assert response.text == "one"
        assert client.upstream_calls == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayedClient(ScriptedClient([]), delay_seconds=-0.1)
