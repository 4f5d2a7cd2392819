"""Real concurrent LLM dispatch (the paper's Section 4.3 / 6 future work).

"BlendSQL ... plans to support parallelized LLM calls in the future to
further minimize query latency."  :mod:`repro.vtime` *models* that
speedup analytically; this module makes it real:

- :class:`ParallelDispatcher` is the one dispatch path: every LLM call
  of every pipeline is one ``client.complete`` in
  :meth:`ParallelDispatcher._call`, inline when ``workers == 1`` or the
  dispatch holds one unique prompt, on a ``ThreadPoolExecutor`` worker
  pool otherwise.  Nothing else picks the path: not telemetry, not the
  client.  Results come back in prompt order with per-call error
  capture, so one failing batch cannot abort its siblings.  Duplicate
  prompts within a dispatch are issued upstream once; that is the only
  deduplication (:class:`~repro.llm.cache.CachingClient` does none).
- :class:`SimulatedLatencyClient` sleeps each paid call's latency on a
  virtual :class:`~repro.vtime.Clock` (a :class:`~repro.vtime.
  ServiceTimer`), without sleeping any real time, so a traced run's
  spans carry virtual durations.  Makespans are not read off a clock:
  they are :func:`~repro.vtime.parallel_makespan` of the paid call
  sizes.
- :class:`DelayedClient` injects a real per-call delay, for wall-clock
  speedup benches.

Every client here is a :class:`~repro.llm.client.ChatClient` decorator,
so the pipelines stay oblivious to which stack they are driving.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import (
    DeadlineExceededError,
    LLMError,
    RetryBudgetExceededError,
    TransientLLMError,
)
from repro.llm.client import ChatClient, ChatResponse
from repro.llm.usage import Usage
from repro.obs import NULL_PROVENANCE, NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_SPAN
from repro.vtime import Clock, LatencyModel


@dataclass(frozen=True)
class DispatchOutcome:
    """One dispatched call: either a response or a captured error."""

    response: Optional[ChatResponse] = None
    error: Optional[LLMError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def text(self) -> Optional[str]:
        return self.response.text if self.response is not None else None

    @property
    def degradable(self) -> bool:
        """True when the error is an *expected* resilience outcome.

        Transient errors, exhausted retry budgets, and expired deadlines
        are the failures a fault-tolerant pipeline degrades on (NULL
        rows); any other :class:`LLMError` — a misconfigured test
        double, a bad request — indicates a bug and should abort instead.
        """
        return isinstance(
            self.error,
            (TransientLLMError, RetryBudgetExceededError, DeadlineExceededError),
        )


class ParallelDispatcher:
    """Fans prompts out over a worker pool, deterministically.

    Guarantees, regardless of worker count or interleaving:

    - results come back in prompt order;
    - duplicate prompts reach the client once, the copies receiving the
      same completion at zero token cost (mirroring a cache hit);
    - with ``capture_errors=True`` an :class:`LLMError` in one call is
      captured into its :class:`DispatchOutcome` instead of aborting the
      dispatch; with ``capture_errors="transient"`` only *degradable*
      failures (transient errors and exhausted retry budgets — see
      :attr:`DispatchOutcome.degradable`) are captured, while the first
      other :class:`LLMError` (in prompt order) re-raises after all
      calls settle.

    ``workers=1`` runs inline on the calling thread — no pool, identical
    semantics — which is what makes worker-count sweeps byte-comparable.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        telemetry: Optional[Telemetry] = None,
        provenance=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prov = provenance if provenance is not None else NULL_PROVENANCE
        metrics = self._tel.metrics
        self._m_dispatches = metrics.counter("dispatch.dispatches")
        self._m_calls = metrics.counter("dispatch.calls")
        self._m_errors = metrics.counter("dispatch.errors")
        self._m_dedup = metrics.counter("dispatch.dedup_followers")
        self._g_queue = metrics.gauge("dispatch.queue_depth")
        self._g_inflight = metrics.gauge("dispatch.in_flight")

    def dispatch(
        self,
        client: ChatClient,
        prompts: Sequence[str],
        *,
        labels: Union[str, Sequence[str]] = "",
        capture_errors: Union[bool, str] = True,
        deadline=None,
    ) -> list[DispatchOutcome]:
        """Complete every prompt; outcomes are returned in prompt order.

        ``deadline`` is an optional :class:`~repro.llm.resilience.
        Deadline` bounding the *whole fan-out*: a call whose turn comes
        after the deadline expired is never dispatched — it is skipped
        with a typed :class:`~repro.errors.DeadlineExceededError`
        outcome (degradable, so pipelines turn it into NULLs) instead
        of being sent upstream.
        """
        if capture_errors not in (True, "transient"):
            raise ValueError(
                f"capture_errors must be True or 'transient', "
                f"got {capture_errors!r}"
            )
        if isinstance(labels, str):
            label_list = [labels] * len(prompts)
        else:
            label_list = list(labels)
            if len(label_list) != len(prompts):
                raise ValueError(
                    f"got {len(label_list)} labels for {len(prompts)} prompts"
                )
        # issue each unique prompt of the dispatch once
        unique: list[tuple[str, str]] = []
        first_index: dict[str, int] = {}
        for index, prompt in enumerate(prompts):
            if prompt not in first_index:
                first_index[prompt] = len(unique)
                unique.append((prompt, label_list[index]))
        tel = self._tel
        if self._prov.enabled:
            # every *requested* call gets a record (duplicates bump the
            # dispatch counter of the shared prompt's record)
            for index, prompt in enumerate(prompts):
                self._prov.record_call(prompt, label=label_list[index])
        self._m_dispatches.inc()
        self._m_dedup.inc(len(prompts) - len(unique))
        self._g_queue.set(len(unique))
        with (
            tel.tracer.span(
                "dispatch",
                prompts=len(prompts),
                unique=len(unique),
                workers=self.workers,
            )
            if tel.enabled
            else NULL_SPAN
        ) as dispatch_span:
            parent = dispatch_span if tel.enabled else None
            if self.workers == 1 or len(unique) <= 1:
                primary = [
                    self._call(client, p, label, parent, deadline)
                    for p, label in unique
                ]
            else:
                with ThreadPoolExecutor(
                    max_workers=min(self.workers, len(unique))
                ) as pool:
                    futures = [
                        pool.submit(self._call, client, p, label, parent, deadline)
                        for p, label in unique
                    ]
                    primary = [future.result() for future in futures]
        self._g_queue.set(0)
        outcomes: list[DispatchOutcome] = []
        seen: set[str] = set()
        for prompt in prompts:
            outcome = primary[first_index[prompt]]
            if prompt in seen and outcome.ok:
                # a duplicate shares the leader's completion for free
                outcome = DispatchOutcome(
                    response=ChatResponse(outcome.response.text, Usage())
                )
            seen.add(prompt)
            outcomes.append(outcome)
        if capture_errors == "transient":
            for outcome in outcomes:
                if outcome.error is not None and not outcome.degradable:
                    raise outcome.error
        return outcomes

    def _call(
        self,
        client: ChatClient,
        prompt: str,
        label: str,
        parent=None,
        deadline=None,
    ) -> DispatchOutcome:
        tel = self._tel
        prov = self._prov
        if deadline is not None and deadline.expired:
            # expired work is skipped, not dispatched: the prompt never
            # reaches the client, and the typed outcome is degradable
            error = DeadlineExceededError(
                f"deadline expired before dispatch of {label or 'llm call'}"
            )
            if prov.enabled:
                prov.record_failure(prompt, type(error).__name__)
            self._m_errors.inc()
            return DispatchOutcome(error=error)
        if not tel.enabled:
            try:
                response = client.complete(prompt, label=label)
            except LLMError as exc:
                if prov.enabled:
                    prov.record_failure(prompt, type(exc).__name__)
                return DispatchOutcome(error=exc)
            if prov.enabled:
                prov.record_outcome(prompt, usage=response.usage)
            return DispatchOutcome(response=response)
        # enabled path: the call span is parented under the dispatch span
        # explicitly, because worker threads have their own span stacks
        self._m_calls.inc()
        self._g_queue.dec()
        self._g_inflight.inc()
        try:
            with tel.tracer.span("llm:call", parent=parent, label=label) as span:
                try:
                    response = client.complete(prompt, label=label)
                except LLMError as exc:
                    span.set("error", type(exc).__name__)
                    self._m_errors.inc()
                    if prov.enabled:
                        prov.record_failure(prompt, type(exc).__name__)
                    return DispatchOutcome(error=exc)
                if prov.enabled:
                    prov.record_outcome(prompt, usage=response.usage)
                usage = response.usage
                span.set("cached", usage.calls == 0)
                span.set("input_tokens", usage.input_tokens)
                span.set("output_tokens", usage.output_tokens)
                if label:
                    metrics = tel.metrics
                    metrics.counter("llm.tokens.input", stage=label).inc(
                        usage.input_tokens
                    )
                    metrics.counter("llm.tokens.output", stage=label).inc(
                        usage.output_tokens
                    )
                    metrics.counter("llm.calls", stage=label).inc(usage.calls)
                return DispatchOutcome(response=response)
        finally:
            self._g_inflight.dec()


class SimulatedLatencyClient:
    """A ChatClient decorator that sleeps on a virtual clock.

    Every *paid* call (``usage.calls > 0``; cache hits are free in time
    as in tokens) sleeps the :class:`~repro.vtime.LatencyModel` latency
    of its token sizes on ``clock``.  No real time passes.
    """

    def __init__(
        self,
        inner: ChatClient,
        clock: Clock,
        model: Optional[LatencyModel] = None,
    ) -> None:
        self.inner = inner
        self.clock = clock
        self.latency_model = model if model is not None else LatencyModel()
        self.model_name = inner.model_name

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        response = self.inner.complete(prompt, label=label)
        if response.usage.calls:
            self.clock.sleep(
                self.latency_model.call_latency(
                    response.usage.input_tokens, response.usage.output_tokens
                )
            )
        return response


class DelayedClient:
    """A ChatClient decorator that sleeps a real delay per call.

    Stands in for network + generation latency in wall-clock benches;
    ``upstream_calls`` counts how many calls actually slept.
    """

    def __init__(self, inner: ChatClient, delay_seconds: float) -> None:
        if delay_seconds < 0:
            raise ValueError(f"delay must be >= 0, got {delay_seconds}")
        self.inner = inner
        self.delay_seconds = delay_seconds
        self.model_name = inner.model_name
        self.upstream_calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        time.sleep(self.delay_seconds)
        with self._lock:
            self.upstream_calls += 1
        return self.inner.complete(prompt, label=label)
