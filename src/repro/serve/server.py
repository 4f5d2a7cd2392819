"""The in-process query server: one event loop, one request lifecycle.

:class:`QueryServer` consumes an arrival-ordered request stream (see
:mod:`repro.serve.traffic`) and runs a discrete-event simulation on a
:class:`VirtualClock`: arrivals are admitted or shed
(:mod:`repro.serve.admission`), admitted requests wait in an
:class:`~repro.serve.scheduler.AgingPriorityQueue`, and up to
``max_concurrent`` requests are in service at once.  Every dispatched
request goes through the same three steps — *dispatch* (breaker check),
optional *plan / waves* (cross-request batching, see the block comment
above ``_dispatch``), *finalize* (run the query, classify, deliver) —
and ``batching=None`` is simply the case with zero waves.  Service times
are *virtual*: the LLM cost model (:func:`~repro.vtime.
parallel_makespan` over the actual paid call sizes) decides when each
answer lands, so a full overload study costs seconds of real compute and
is bit-for-bit reproducible.

Deadlines are enforced end-to-end, by construction:

- a request that expires while queued is *rejected* at its deadline
  instant (``deadline_expired``) — it never runs;
- a dispatched request executes with its remaining budget as an
  executor-level :class:`~repro.llm.resilience.Deadline`, so retry
  backoff (under fault injection) degrades cells rather than overruns;
- a finished answer whose virtual service time would still land past
  the deadline is *clamped to the deadline* and delivered NULL-degraded
  — the client always hears back by ``arrival + deadline_seconds``.

Sustained overload feeds the existing :class:`~repro.llm.resilience.
CircuitBreaker`: every deadline miss is a breaker failure, and once it
trips, subsequent requests skip LLM work entirely and get a cheap
degraded answer until the cooldown half-opens the breaker — quality
sheds before availability, and the queue drains instead of collapsing.

All requests of all tenants share one state per database
(:mod:`repro.serve.state`): one client stack, one
:class:`~repro.udf.store.MappingStore`, and the pipelines over them — a
UDF executor with its prompt cache, an expanded database for HQDL — plus
one telemetry registry and one run ledger.
Each HQDL database is expanded before the first arrival, its cost
reported as the run's :class:`~repro.serve.report.StartupRecord`, so no
request pays for it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import CircuitOpenError, ReproError
from repro.llm.batching import batched
from repro.llm.resilience import CircuitBreaker, Deadline, ResilienceReport
from repro.llm.usage import UsageMeter
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.ledger import RunLedger
from repro.obs.slo import AVAILABILITY, SLOTracker
from repro.pipeline import ExecutionReport
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.batcher import (
    BatchingConfig,
    CrossRequestBatcher,
    FlushedGroup,
    PendingRequest,
    count_requesters,
)
from repro.serve.report import ServeReport
from repro.serve.request import (
    DEGRADED,
    REJECTED,
    SERVED,
    QueryRequest,
    RequestOutcome,
)
from repro.serve.scheduler import AgingPriorityQueue
from repro.serve.state import DatabaseStates, hqdl_databases
from repro.serve.trace import ServeTraceLog, TraceRecord, WaveRecord
from repro.swan.benchmark import Swan
from repro.udf.ingredients import parse_map_answers
from repro.udf.store import Pay
from repro.vtime import ServiceTimer, VirtualClock, parallel_makespan


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one :class:`QueryServer`.

    ``workers`` is the per-request LLM fan-out of the makespan model
    only: every served dispatch runs on the event loop's thread;
    ``max_concurrent`` is how many requests execute at once;
    ``queue_limit`` bounds the admission queue (backpressure);
    ``base_overhead`` models the non-LLM per-request cost (parse, SQL,
    delivery).  ``batch_size`` is the floor of the adaptive batch size
    (:func:`~repro.plan.adaptive_batch_size`) of every served query's
    LLMMap/LLMJoin calls.
    ``fault_rate > 0`` injects upstream faults through the existing
    FaultyClient/RetryingClient stack, with retry backoff charged against
    each request's deadline.
    """

    model_name: str = "gpt-4-turbo"
    shots: int = 2
    batch_size: int = 5
    pushdown: bool = True
    workers: int = 4
    max_concurrent: int = 4
    queue_limit: int = 64
    aging_interval: float = 10.0
    base_overhead: float = 0.05
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 30.0
    fault_rate: float = 0.0
    fault_seed: int = 0
    cache_dir: Optional[Union[str, Path]] = None
    #: cross-request continuous batching (None = per-request dispatch,
    #: byte-identical to the pre-batching server)
    batching: Optional[BatchingConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.base_overhead < 0:
            raise ValueError(
                f"base_overhead must be >= 0, got {self.base_overhead}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1], got {self.fault_rate}"
            )


def _fan_out(
    signature: tuple, group: FlushedGroup, answers: Sequence[Optional[str]]
) -> None:
    """Deliver a flushed map group's answers to every waiting request.

    One ``answers`` update per member and group.  An enqueue attaches a
    request's new keys as one run of ``group.owners``, so shares are
    built slice by slice; the rare later requesters are added per key.
    """
    payloads = group.payloads
    shares: dict[PendingRequest, dict[tuple, Optional[str]]] = {}
    start = 0
    for owner, run in groupby(group.owners):
        end = start + len(list(run))
        shares.setdefault(owner, {}).update(
            zip(payloads[start:end], answers[start:end])
        )
        start = end
    if group.later:
        answer_of = dict(zip(payloads, answers))
        for payload, requesters in group.later.items():
            for member in requesters:
                shares.setdefault(member, {})[payload] = answer_of[payload]
    for member, share in shares.items():
        member.answers.setdefault(signature, {}).update(share)


class QueryServer:
    """Serve a request stream over one SWAN benchmark, deterministically."""

    def __init__(
        self,
        swan: Swan,
        config: Optional[ServerConfig] = None,
        *,
        policies: Optional[dict[str, TenantPolicy]] = None,
        telemetry: Optional[Telemetry] = None,
        slo_tracker: Optional[SLOTracker] = None,
        ledger: Optional[RunLedger] = None,
        trace: Optional[ServeTraceLog] = None,
    ) -> None:
        self.swan = swan
        self.config = config if config is not None else ServerConfig()
        self.clock = VirtualClock()
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.slo_tracker = slo_tracker
        #: passive per-request trace sink (None = tracing off); nothing
        #: in the event loop ever *reads* it, preserving byte identity
        self._trace = trace
        self.admission = AdmissionController(
            self.config.queue_limit, policies, telemetry=self._tel
        )
        self.queue = AgingPriorityQueue(
            self.config.aging_interval, telemetry=self._tel
        )
        self.ledger = ledger
        self.meter = UsageMeter()
        self.resilience = ResilienceReport()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=self.clock,
            report=self.resilience,
            telemetry=self._tel,
        )
        self.batcher: Optional[CrossRequestBatcher] = None
        if self.config.batching is not None:
            self.batcher = CrossRequestBatcher()
        self._timer = ServiceTimer()
        self.states = DatabaseStates(
            swan,
            self.config,
            meter=self.meter,
            resilience=self.resilience,
            telemetry=self._tel,
            retry_clock=self._timer,
        )
        self._in_service = 0
        self._max_queue_depth = 0
        self._service_ewma: Optional[float] = None
        self._events: list[tuple] = []
        self._seq = 0
        #: trace ids of requests dispatched but not yet finished — the
        #: flight recorder snapshots these (plus the queue) into every
        #: incident, independent of whether tracing is on
        self._in_flight: set[str] = set()
        if self._tel.flight.enabled:
            self._tel.flight.context_provider = self._flight_context
        metrics = self._tel.metrics
        self._m_offered = metrics.counter("serve.offered")
        self._m_admitted = metrics.counter("serve.admitted")
        self._m_shed = metrics.counter("serve.shed")
        self._m_served = metrics.counter("serve.served")
        self._m_degraded = metrics.counter("serve.degraded")
        self._m_rejected = metrics.counter("serve.rejected")
        self._m_queue_depth = metrics.gauge("serve.queue_depth")

    def close(self) -> None:
        """Release every database connection and disk cache."""
        self.states.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the event loop -----------------------------------------------------------

    def run(self, requests: Sequence[QueryRequest]) -> ServeReport:
        """Serve the whole stream; returns when the last outcome landed.

        Every database the stream routes to HQDL is expanded first
        (:meth:`DatabaseStates.warm`), so HQDL requests pay no LLM call.
        """
        startup = self.states.warm(hqdl_databases(requests))
        outcomes: list[RequestOutcome] = []
        self._events = []
        self._seq = 0
        for request in sorted(
            requests, key=lambda r: (r.arrival, r.request_id)
        ):
            self._push_event(request.arrival, "arrival", request)
        horizon = max((r.arrival for r in requests), default=0.0)
        while self._events:
            when, _, kind, payload = heapq.heappop(self._events)
            if kind == "flush" and not self.batcher.has_due(when):
                # another dispatch at this instant already flushed the
                # wave; skipped without advancing the clock
                continue
            self.clock.advance_to(when)
            if kind == "flush":
                self._on_flush()
                continue
            if kind == "land":
                # landings never free a service slot (only a finish
                # does), so no dispatch pass: queue reaping stays at the
                # same instants as the unbatched path
                self._on_land(payload)
                continue
            if kind == "arrival":
                outcome = self._on_arrival(payload)
                if outcome is not None:
                    outcomes.append(outcome)
            else:
                self._on_finish(payload)
                outcomes.append(payload)
            outcomes.extend(self._dispatch_ready())
        if len(self.queue) or self._in_service:
            raise ReproError(
                f"event loop drained with {len(self.queue)} queued and "
                f"{self._in_service} in-service requests"
            )
        if self.slo_tracker is not None:
            # seal the run so the last open window's alerts evaluate
            self.slo_tracker.finalize(self.clock.now())
        cache_hits, cache_misses = self.states.udf_cache_totals()
        report = ServeReport(
            outcomes=outcomes,
            horizon=horizon,
            admitted=self.admission.admitted,
            shed=self.admission.shed,
            shed_by_reason=dict(self.admission.shed_by_reason),
            usage=self.meter.total,
            breaker_trips=self.breaker.trips,
            max_queue_depth=self._max_queue_depth,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            mapping_stats=self.states.mapping_stats(),
            resilience=self.resilience,
            startup=startup,
        )
        if self.batcher is not None:
            stats = self.batcher.stats()
            stats["shared_tokens_by_tenant"] = {
                tenant: tokens
                for tenant, tokens in sorted(
                    self.admission.tokens_shared.items()
                )
                if tokens
            }
            stats["tokens_per_answer"] = round(report.tokens_per_answer(), 6)
            report.batching = stats
        if not self.admission.accounted() or not report.accounted():
            raise ReproError(
                "serving accounting does not balance: "
                f"offered={report.offered} served={report.served} "
                f"degraded={report.degraded} rejected={report.rejected}"
            )
        if self.ledger is not None:
            self.ledger.append(
                label="serve",
                pipeline="serve",
                config={
                    "model": self.config.model_name,
                    "shots": self.config.shots,
                    "workers": self.config.workers,
                    "max_concurrent": self.config.max_concurrent,
                    "queue_limit": self.config.queue_limit,
                },
                llm_calls=report.usage.calls,
                input_tokens=report.usage.input_tokens,
                output_tokens=report.usage.output_tokens,
                makespan=round(
                    max((o.finish_time for o in outcomes), default=0.0), 6
                ),
                payload={"serve": report.as_record()},
            )
        return report

    def _push_event(self, when: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (when, self._seq, kind, payload))
        self._seq += 1

    def _flight_context(self) -> dict:
        """Live request context snapshotted into incident dumps.

        Trace ids are pure functions of request ids, so this is
        recorded whether or not tracing is on — an incident line links
        to the same traces either way.
        """
        return {
            "in_flight": sorted(self._in_flight),
            "queued": [r.trace_id for r in self.queue.pending()],
        }

    def _trace_outcome(
        self,
        outcome: RequestOutcome,
        *,
        start: Optional[float] = None,
        **stages,
    ) -> None:
        """Append one terminal outcome's trace record (tracing on only).

        ``stages`` are the :class:`TraceRecord` fields only a dispatched
        request has: ``land``, the service-time components, ``retries``
        and ``waves``.
        """
        if self._trace is None:
            return
        request = outcome.request
        promotions: tuple[float, ...] = ()
        if start is not None or outcome.reason == "deadline_expired":
            queue_end = start if start is not None else outcome.finish_time
            promotions = tuple(
                self.queue.promotion_instants(
                    request, request.arrival, queue_end
                )
            )
        self._trace.add(
            TraceRecord.of(outcome, start=start, promotions=promotions, **stages)
        )

    def _record_outcome(self, outcome: RequestOutcome) -> None:
        """Windowed telemetry + SLO accounting for one terminal outcome.

        Purely passive: nothing recorded here feeds back into admission,
        scheduling, or execution, which is what lets the NULL-telemetry
        run stay byte-identical to the instrumented one.
        """
        request = outcome.request
        t = outcome.finish_time
        ts = self._tel.timeseries
        if ts.enabled:
            ts.record("serve." + outcome.status, t, tenant=request.tenant)
            if outcome.answered:
                ts.observe(
                    "serve.latency", t, outcome.latency,
                    exemplar=request.trace_id,
                )
                ts.observe(
                    "serve.latency", t, outcome.latency,
                    exemplar=request.trace_id, tenant=request.tenant,
                )
                tokens = outcome.input_tokens + outcome.output_tokens
                if tokens:
                    ts.record("serve.tokens", t, tokens, tenant=request.tenant)
                if outcome.llm_calls:
                    ts.record(
                        "serve.llm_calls", t, outcome.llm_calls,
                        tenant=request.tenant,
                    )
        if outcome.status == DEGRADED:
            self._tel.flight.record(
                t, "degrade",
                tenant=request.tenant, reason=outcome.reason or "",
                request_id=request.request_id, trace_id=request.trace_id,
            )
        tracker = self.slo_tracker
        if tracker is not None:
            for slo in tracker.slos:
                if slo.kind == AVAILABILITY:
                    tracker.record(
                        slo.name, t, outcome.answered,
                        exemplar=request.trace_id,
                    )
                elif outcome.answered:
                    tracker.record(
                        slo.name, t, outcome.latency <= slo.latency_target,
                        exemplar=request.trace_id,
                    )

    def _retry_hint(self) -> float:
        """Seconds until admission plausibly succeeds, from the backlog."""
        base = (
            self._service_ewma
            if self._service_ewma is not None
            else self.config.base_overhead
        )
        waiting = self.admission.total_queued() + self._in_service
        return round(
            base * (waiting / max(1, self.config.max_concurrent) + 1.0), 6
        )

    def _on_arrival(self, request: QueryRequest) -> Optional[RequestOutcome]:
        self._m_offered.inc()
        if self._tel.timeseries.enabled:
            self._tel.timeseries.record(
                "serve.offered", request.arrival, tenant=request.tenant
            )
        rejection = self.admission.admit(
            request, retry_after=self._retry_hint()
        )
        if rejection is not None:
            self._m_shed.inc()
            return self._reject(
                request, rejection.reason, self.clock.now(),
                retry_after=rejection.retry_after,
            )
        self._m_admitted.inc()
        self.queue.push(request)
        depth = len(self.queue)
        self._m_queue_depth.set(depth)
        if depth > self._max_queue_depth:
            self._max_queue_depth = depth
        return None

    def _reject(
        self, request: QueryRequest, reason: str, when: float, **fields
    ) -> RequestOutcome:
        """Record and trace one refusal (shed at the door or reaped in queue)."""
        self._m_rejected.inc()
        outcome = RequestOutcome(
            request=request, status=REJECTED, reason=reason,
            finish_time=when, **fields,
        )
        self._record_outcome(outcome)
        self._trace_outcome(outcome)
        return outcome

    def _dispatch_ready(self) -> list[RequestOutcome]:
        """Expire stale queue entries, then fill free service slots."""
        outcomes: list[RequestOutcome] = []
        now = self.clock.now()
        for request in self.queue.pop_expired(now):
            # the client gave up at its deadline instant, which is <= now;
            # this is a post-admission rejection, so admission's
            # offered == admitted + shed balance is untouched
            self.admission.on_expired_in_queue(request)
            outcomes.append(
                self._reject(
                    request, "deadline_expired", request.deadline_at,
                    queue_wait=request.deadline_seconds,
                )
            )
        while self._in_service < self.config.max_concurrent:
            request = self.queue.pop(now, eligible=self.admission.can_dispatch)
            if request is None:
                break
            self.admission.on_dispatched(request)
            self._in_service += 1
            self._in_flight.add(request.trace_id)
            self._dispatch(request)
        self._m_queue_depth.set(len(self.queue))
        return outcomes

    def _on_finish(self, outcome: RequestOutcome) -> None:
        self._in_service -= 1
        self._in_flight.discard(outcome.request.trace_id)
        self.admission.on_finished(
            outcome.request,
            outcome.input_tokens + outcome.output_tokens,
            shared_tokens=outcome.shared_tokens,
        )
        if outcome.status == SERVED:
            self._m_served.inc()
        else:
            self._m_degraded.inc()
        self._record_outcome(outcome)

    # -- one request lifecycle: dispatch -> (plan -> waves) -> finalize ----------
    #
    # Every dispatched request becomes a ``PendingRequest`` carrying the
    # plan its pipeline prepared at dispatch (``repro.pipeline``: UDF keys
    # and QA prompts; an HQDL plan is empty, its database warmed before
    # the first arrival).  It ends in ``_finalize``, which generates and
    # runs the query under the request's remaining budget and classifies
    # the outcome.  Without ``config.batching`` that happens on the spot: the
    # request rode zero waves and "lands" at its own start instant.  With
    # it, the plan's work is first pruned against the shared mapping
    # store (per key, its expansion face included) and prompt caches
    # (per prompt), and only what they do not cover is enqueued into the
    # CrossRequestBatcher; the server branches on the kind of work (keys
    # or whole prompts), never on the pipeline.  A flush event fires at
    # the dispatch instant, and every group then holding items flushes
    # as a single *wave* — with the work of every request dispatched at
    # that same instant — whose paid calls share one
    # ``parallel_makespan`` pool: coalesced batches are charged like the
    # fan-out of a single request, and a whole prompt (an LLMQA) like a
    # map chunk.  Map answers land in each requester's ``answers``.  When
    # a wave lands, members with no work left are finalized from those
    # answers (zero LLM calls in the common case).

    def _dispatch(self, request: QueryRequest) -> None:
        """Start one request: breaker check, optional planning, finalize.

        The result is computed *now* in real time but delivered at the
        virtual ``finish_time`` the cost model assigns.  Requests are
        therefore serialized through the shared caches in dispatch
        order — the deterministic analogue of lock-ordered cache access.
        """
        start = self.clock.now()
        queue_wait = start - request.arrival
        try:
            self.breaker.before_call()
        except CircuitOpenError:
            # the overload fast path: no LLM work, a NULL-degraded answer
            # at the cheap fixed cost — availability kept, quality shed
            finish = min(start + self.config.base_overhead, request.deadline_at)
            outcome = RequestOutcome(
                request=request,
                status=DEGRADED,
                reason="breaker_open",
                finish_time=finish,
                queue_wait=queue_wait,
                service_seconds=finish - start,
            )
            self._trace_outcome(outcome, start=start)
        else:
            member = PendingRequest(request, start=start, queue_wait=queue_wait)
            # a malformed query's plan carries its error: finalize raises
            # it and the request degrades like any failed one
            pipeline, query = self.states.of(request)
            member.plan = pipeline.prepare(query)
            if self.batcher is not None:
                self._plan(member)
            if member.outstanding:
                return  # finalized when its last wave lands
            outcome = self._finalize(member, start)
        self._push_event(outcome.finish_time, "finish", outcome)

    def _plan(self, member: PendingRequest) -> None:
        """Plan one dispatched request's LLM work into the batcher.

        Each key the store holds (or its expansion face serves) and each
        prompt the cache holds is served from there; the rest is enqueued
        and released at once.  A signature the face has yet to judge is
        judged here, its checks paid on the spot (see :meth:`_pay_now`),
        so the keys its column cannot serve ride the wave like any other.
        """
        request, start = member.request, member.start
        batcher = self.batcher
        pipeline, _ = self.states.of(request)
        work = member.plan.work()
        pay = self._pay_now(member, pipeline)
        for item in work:
            if item.prompt is not None:
                continue
            call = item.call
            signature = call.signature()
            held = member.answers.setdefault(signature, {})
            wanted = [key for key in dict.fromkeys(item.keys) if key not in held]
            store = pipeline.mapping_store
            stored = store.peek(signature, wanted)
            held.update(stored)
            batcher.keys_from_store += len(stored)
            wanted = [key for key in wanted if key not in stored]
            if wanted:
                try:
                    cells = store.expansion_lookup(
                        signature, wanted, pay, pipeline.option_values(call)
                    )
                except ReproError:
                    continue  # a broken client: finalize meets it again
                held.update(cells)
                wanted = [key for key in wanted if key not in cells]
            if wanted:
                batcher.enqueue_keys(
                    request.database, call, wanted, member,
                    chunk_size=item.chunk_size, now=start,
                )
        for item in work:
            if item.prompt is None:
                continue
            if pipeline.cache.peek(item.prompt) is not None:
                batcher.prompts_from_cache += 1
                continue
            batcher.enqueue_prompt(
                request.database, item.label, item.prompt, member, now=start
            )
        if member.outstanding:
            self._push_event(start, "flush", None)

    def _pay_now(self, member: PendingRequest, pipeline) -> Pay:
        """A paying function for calls planning makes on its own.

        Each call goes through the pipeline under the request's deadline
        and is charged to ``member``; its size and any retry backoff wait
        in ``member.call_sizes``/``backoff`` for the request's wave (or,
        with nothing enqueued, its finalize), whose makespan pools them
        with the rest of the request's calls, as an unbatched finalize
        pools every call it pays.
        """
        timer = self._timer.restart(member.start)
        remaining = max(member.request.deadline_at - member.start, 1e-9)
        deadline = Deadline(remaining, timer)
        report = ExecutionReport()

        def pay(prompt, label: str) -> Optional[str]:
            """Pay one prompt for ``member``; its text, or None."""
            paid = len(report.call_sizes)
            text = pipeline.pay([prompt], label, report, deadline)[0]
            for size in report.call_sizes[paid:]:
                member.llm_calls += 1
                member.input_tokens += size[0]
                member.output_tokens += size[1]
                member.call_sizes.append(size)
            member.backoff = timer.elapsed
            return text

        return pay

    def _on_flush(self) -> None:
        """Flush every due group as one wave and schedule its landing."""
        now = self.clock.now()
        wave = self.batcher.collect_due(now)
        members: Counter = Counter()
        for group in wave:
            members.update(group.members)
        # the wave's dispatch budget ends at the earliest member deadline:
        # every member was dispatched before its deadline and the wave
        # flushes at that instant, and this Deadline guarantees no retry
        # backoff overruns it either
        wave_timer = self._timer.restart(now)
        min_deadline = min(m.request.deadline_at for m in members)
        deadline = Deadline(max(min_deadline - now, 1e-9), wave_timer)
        wave_sizes: list[tuple[int, int]] = []
        wave_calls = 0
        for group in wave:
            wave_calls += self._flush_group(group, deadline, wave_sizes, now)
        # the calls planning paid for the members join the wave's pool
        backoff = 0.0
        for member in members:
            wave_sizes += member.call_sizes
            backoff = max(backoff, member.backoff)
            member.call_sizes, member.backoff = [], 0.0
        land = (
            now
            + parallel_makespan(wave_sizes, self.config.workers)
            + wave_timer.elapsed
            + backoff
        )
        if self._trace is not None:
            # one shared dispatch record, linked from every member trace
            wave_id = self._trace.next_wave_id()
            ordered = sorted(members, key=lambda m: m.request.request_id)
            for member in ordered:
                member.waves.append(wave_id)
            self._trace.add_wave(
                WaveRecord(
                    wave_id=wave_id,
                    flush=now,
                    land=land,
                    members=tuple(m.request.trace_id for m in ordered),
                    items=sum(len(group.payloads) for group in wave),
                    calls=wave_calls,
                )
            )
        # a member never waits past its own deadline for the wave: its
        # share lands (and it finalizes, degraded) at the deadline
        # instant, exactly when the unbatched path would give up — the
        # wave itself still lands at ``land`` for everyone else
        by_when: dict[float, list[tuple[PendingRequest, int]]] = {}
        for member, item_count in members.items():
            when = min(land, member.request.deadline_at)
            by_when.setdefault(when, []).append((member, item_count))
        for when in sorted(by_when):
            self._push_event(when, "land", by_when[when])

    def _flush_group(
        self,
        group: FlushedGroup,
        deadline: Deadline,
        wave_sizes: list[tuple[int, int]],
        now: float,
    ) -> int:
        """Dispatch one flushed group; results fan out to every requester.

        Returns the number of calls the group formed (trace bookkeeping).
        """
        batcher = self.batcher
        later = group.later
        calls_formed = 0

        def settle(payloads, owners, usage, fill=None) -> None:
            # every paid call occupies the wave (``usage`` is None for a
            # call that failed)
            if usage is not None and usage.calls:
                wave_sizes.append((usage.input_tokens, usage.output_tokens))
            batcher.settle_call(payloads, owners, later, usage, fill=fill)

        # every member of a group shares its database and pipeline
        pipeline, _ = self.states.of(group.owners[0].request)
        if group.kind == "map":
            signature = group.call.signature()
            chunks = batched(group.payloads, group.chunk_size)
            prompts = [pipeline.map_prompt(group.call, chunk) for chunk in chunks]
            outcomes = pipeline.dispatcher.dispatch(
                pipeline.client, prompts, labels=group.label,
                capture_errors=True, deadline=deadline,
            )
            calls_formed = len(chunks)
            answers: list[Optional[str]] = []
            for chunk, owners, outcome in zip(
                chunks, batched(group.owners, group.chunk_size), outcomes
            ):
                fill = len(chunk) / group.chunk_size
                if outcome.error is not None:
                    # same tolerance as the per-request path: the failed
                    # batch degrades to NULLs for every waiting request
                    answers += [None] * len(chunk)
                    for member, count in count_requesters(
                        chunk, owners, later
                    ).items():
                        member.degraded_keys += count
                    self.resilience.record_degraded(len(chunk))
                    settle(chunk, owners, None, fill)
                    continue
                answers += parse_map_answers(outcome.response.text, len(chunk))
                settle(chunk, owners, outcome.response.usage, fill)
                if self._tel.timeseries.enabled:
                    self._tel.timeseries.observe(
                        "serve.batch_occupancy", now, fill
                    )
            _fan_out(signature, group, answers)
            # only real answers, like the executor: degraded or drifted
            # NULLs must not pin other requests to NULL
            pipeline.mapping_store.put(
                signature,
                {k: v for k, v in zip(group.payloads, answers) if v is not None},
            )
        else:
            outcomes = pipeline.dispatcher.dispatch(
                pipeline.client, group.payloads, labels=group.label,
                capture_errors=True, deadline=deadline,
            )
            calls_formed = len(group.payloads)
            for prompt, owner, outcome in zip(
                group.payloads, group.owners, outcomes
            ):
                # a failed prompt is left uncached: finalize re-attempts
                # (and degrades there if the upstream is still failing);
                # a completed one went through the group's CachingClient,
                # so it is already cached for finalize
                usage = None
                if outcome.error is None:
                    usage = outcome.response.usage
                settle([prompt], [owner], usage)
        self._tel.flight.record(
            now, "batch_flush",
            label=group.label, items=len(group.payloads), calls=calls_formed,
            requests=len(group.members),
        )
        return calls_formed

    def _on_land(self, payload: list[tuple[PendingRequest, int]]) -> None:
        """A wave landed: settle each member, finalize the completed ones."""
        land = self.clock.now()
        for member, item_count in payload:
            member.outstanding -= item_count
            if member.outstanding == 0:
                outcome = self._finalize(member, land)
                self._push_event(outcome.finish_time, "finish", outcome)

    def _finalize(self, member: PendingRequest, land: float) -> RequestOutcome:
        """Generate and run the query at ``land``; classify and deliver.

        The one place a request executes, from its dispatch-time plan:
        nothing is parsed, fetched or looked up again.  An unbatched
        request lands at its own start and pays for all of its LLM work
        here.  A batched one generates from the answers its waves
        delivered, LLM-free in the common case; residual paid calls (e.g.
        a QA retry after a failed flush) are charged on top of ``land``.
        """
        request = member.request
        batched = self.batcher is not None
        timer = self._timer.restart(land)
        remaining = max(request.deadline_at - land, 1e-9)
        retries_before = self.resilience.retries
        usage_before = self.meter.total
        error: Optional[ReproError] = None
        rows: Optional[int] = None
        degraded_keys = 0
        call_sizes: list[tuple[int, int]] = []
        pipeline, _ = self.states.of(request)
        # batched: the answers stand in for the store planning consulted
        known = member.answers if batched else None
        try:
            fillings = pipeline.generate(
                member.plan, deadline=Deadline(remaining, timer), known=known
            )
            result, report = pipeline.run(member.plan, fillings)
            rows = len(result.rows)
            degraded_keys = report.degraded_keys
            call_sizes = list(report.call_sizes)
        except ReproError as exc:
            error = exc
        usage_delta = self.meter.total - usage_before
        # with no wave to ride, the calls planning paid pool with these
        call_sizes += member.call_sizes
        backoff = timer.elapsed + member.backoff
        tail_llm = parallel_makespan(call_sizes, self.config.workers)
        tail = self.config.base_overhead + tail_llm + backoff
        service = (land - member.start) + tail
        self._service_ewma = (
            service
            if self._service_ewma is None
            else 0.8 * self._service_ewma + 0.2 * service
        )
        finish = land + tail
        degraded_keys += member.degraded_keys
        if error is not None:
            status, reason = DEGRADED, "error"
            finish = min(finish, request.deadline_at)
            self.breaker.record_failure()
        elif finish > request.deadline_at:
            # the full answer would land late: deliver NULL-degraded at
            # exactly the deadline and tell the breaker we are drowning
            status, reason = DEGRADED, "deadline"
            degraded_keys = max(degraded_keys, rows or 0)
            finish = request.deadline_at
            self.breaker.record_failure()
        elif degraded_keys:
            status, reason = DEGRADED, (
                "deadline" if self.config.fault_rate <= 0 else "faults"
            )
            self.breaker.record_success()
        else:
            status, reason = SERVED, None
            self.breaker.record_success()
        outcome = RequestOutcome(
            request=request,
            status=status,
            reason=reason,
            finish_time=finish,
            queue_wait=member.queue_wait,
            service_seconds=finish - member.start,
            rows=rows,
            llm_calls=member.llm_calls + usage_delta.calls,
            input_tokens=member.input_tokens + usage_delta.input_tokens,
            output_tokens=member.output_tokens + usage_delta.output_tokens,
            degraded_keys=degraded_keys,
            shared_tokens=member.shared_tokens,
            partial=status == DEGRADED and rows is not None,
        )
        self._trace_outcome(
            outcome,
            start=member.start,
            land=land if batched else None,
            overhead_seconds=self.config.base_overhead,
            llm_seconds=tail_llm,
            backoff_seconds=backoff,
            retries=self.resilience.retries - retries_before,
            waves=tuple(member.waves),
        )
        return outcome
