"""The in-process query server: one event loop, three-way outcomes.

:class:`QueryServer` consumes an arrival-ordered request stream (see
:mod:`repro.serve.traffic`) and runs a discrete-event simulation on a
:class:`VirtualClock`: arrivals are admitted or shed
(:mod:`repro.serve.admission`), admitted requests wait in an
:class:`~repro.serve.scheduler.AgingPriorityQueue`, and up to
``max_concurrent`` requests are in service at once.  Service times are
*virtual* — the LLM cost model (:func:`~repro.llm.batching.
parallel_makespan` over the request's actual paid call sizes) decides
when each answer lands, so a full overload study costs seconds of real
compute and is bit-for-bit reproducible.

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

All requests of all tenants share one prompt cache per database, one
:class:`~repro.plan.MappingStore`, one telemetry registry, and one run
ledger — cross-request reuse is the whole economic argument for serving
hybrid queries from a resident process.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.hqdl import HQDL
from repro.errors import CircuitOpenError, ReproError
from repro.llm.batching import batched, parallel_makespan
from repro.llm.cache import CachingClient, PromptCache
from repro.llm.chat import MockChatModel
from repro.llm.diskcache import PersistentClient, PersistentPromptCache
from repro.llm.faults import FaultInjector, FaultPlan, FaultyClient
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.llm.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceReport,
    RetryingClient,
    RetryPolicy,
)
from repro.llm.usage import Usage, UsageMeter
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.ledger import RunLedger
from repro.obs.slo import AVAILABILITY, SLOTracker
from repro.plan import MappingStore
from repro.plan.policy import AdaptiveBatchPolicy
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.batcher import (
    BatchingConfig,
    CrossRequestBatcher,
    FlushedGroup,
    PendingRequest,
)
from repro.serve.request import (
    DEGRADED,
    REJECTED,
    SERVED,
    QueryRequest,
    RequestOutcome,
)
from repro.serve.scheduler import AgingPriorityQueue
from repro.serve.trace import ServeTraceLog, TraceRecord, WaveRecord
from repro.sqlparser import parse
from repro.swan.benchmark import Swan
from repro.swan.build import build_curated_database
from repro.udf.executor import HybridQueryExecutor, _parse_map_answers


class VirtualClock:
    """The server's time source: advanced by the event loop, never real."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self._now += max(0.0, seconds)

    def advance_to(self, when: float) -> None:
        if when > self._now:
            self._now = when


class ServiceTimer:
    """Request-local virtual time: global now + this request's backoffs.

    Handed to the request's :class:`~repro.llm.resilience.Deadline` (and,
    under fault injection, the retry layer's clock), so waiting consumes
    *that request's* budget without advancing the server clock — other
    in-flight requests are unaffected, exactly as if each ran on its own
    thread of wall time.
    """

    def __init__(self, start: float) -> None:
        self.start = start
        self.elapsed = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self.start + self.elapsed

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.elapsed += max(0.0, seconds)


class _SizeRecorder:
    """A pass-through client recording (input, output) sizes of paid calls.

    The UDF executor reports its own call sizes; HQDL does not, so the
    server slips this between the pipeline and the model to know what a
    generation *cost* — cache-served responses (zero ``Usage.calls``)
    are free and unrecorded, matching the makespan model.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.prefers_batch_dispatch = bool(
            getattr(inner, "prefers_batch_dispatch", False)
        )
        self.sizes: list[tuple[int, int]] = []

    def _record(self, response) -> None:
        if response.usage.calls:
            self.sizes.append(
                (response.usage.input_tokens, response.usage.output_tokens)
            )

    def complete(self, prompt: str, *, label: str = ""):
        response = self.inner.complete(prompt, label=label)
        self._record(response)
        return response

    def complete_many(self, prompts, labels, *, deadline=None):
        if deadline is not None:
            responses = self.inner.complete_many(prompts, labels, deadline=deadline)
        else:
            responses = self.inner.complete_many(prompts, labels)
        for response in responses:
            self._record(response)
        return responses


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one :class:`QueryServer`.

    ``workers`` is the per-request LLM fan-out (feeds the makespan
    model); ``max_concurrent`` is how many requests execute at once;
    ``queue_limit`` bounds the admission queue (backpressure);
    ``base_overhead`` models the non-LLM per-request cost (parse, SQL,
    delivery).  ``fault_rate > 0`` injects upstream faults through the
    existing FaultyClient/RetryingClient stack, with retry backoff
    charged against each request's deadline.
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
    share_mappings: bool = False
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
        if self.base_overhead < 0:
            raise ValueError(
                f"base_overhead must be >= 0, got {self.base_overhead}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1], got {self.fault_rate}"
            )


@dataclass
class ServeReport:
    """Everything one serving run produced, with the invariants to check."""

    outcomes: list[RequestOutcome]
    horizon: float
    admitted: int
    shed: int
    shed_by_reason: dict[str, int]
    usage: Usage
    breaker_trips: int
    max_queue_depth: int
    cache_hits: int
    cache_misses: int
    mapping_stats: dict
    resilience: ResilienceReport
    #: cross-request batching summary (None when batching is off, which
    #: keeps the unbatched record byte-identical to the pre-batching one)
    batching: Optional[dict] = None

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.status == SERVED)

    @property
    def degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.status == DEGRADED)

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes if o.status == REJECTED)

    @property
    def answered(self) -> int:
        return self.served + self.degraded

    def accounted(self) -> bool:
        """The serving trichotomy: every offer served, degraded, or rejected."""
        return (
            self.offered == self.served + self.degraded + self.rejected
            and self.shed + self.admitted == self.offered
        )

    def latencies(self) -> list[float]:
        """Latencies of answered requests (rejections refuse, not answer)."""
        return sorted(o.latency for o in self.outcomes if o.answered)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of answered latency; 0.0 when empty."""
        latencies = self.latencies()
        if not latencies:
            return 0.0
        rank = max(1, -(-int(q * 100) * len(latencies) // 100))
        return latencies[min(rank, len(latencies)) - 1]

    def max_latency(self) -> float:
        latencies = self.latencies()
        return latencies[-1] if latencies else 0.0

    def throughput(self) -> float:
        """Answered requests per virtual second over the run's span."""
        if not self.outcomes:
            return 0.0
        span = max(self.horizon, max(o.finish_time for o in self.outcomes))
        return self.answered / span if span > 0 else 0.0

    def per_tenant(self) -> dict[str, dict]:
        """Per-tenant offered/served/degraded/rejected/token totals."""
        tenants: dict[str, dict] = {}
        for outcome in self.outcomes:
            stats = tenants.setdefault(
                outcome.request.tenant,
                {"offered": 0, "served": 0, "degraded": 0, "rejected": 0,
                 "tokens": 0},
            )
            stats["offered"] += 1
            stats[outcome.status] += 1
            stats["tokens"] += outcome.input_tokens + outcome.output_tokens
        for stats in tenants.values():
            answered = stats["served"] + stats["degraded"]
            stats["answered_share"] = round(
                answered / stats["offered"], 6
            ) if stats["offered"] else 0.0
        return tenants

    def fairness(self) -> float:
        """Jain's index over per-tenant answered shares (1.0 = equal).

        Measured on answered/offered ratios, so a tenant offering more
        load does not *count* as being treated better — only getting a
        larger fraction of its own requests answered does.
        """
        shares = [t["answered_share"] for t in self.per_tenant().values()]
        if not shares:
            return 1.0
        total = sum(shares)
        squares = sum(s * s for s in shares)
        if squares == 0:
            return 1.0
        return (total * total) / (len(shares) * squares)

    def degraded_by_reason(self) -> dict[str, int]:
        reasons: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.status == DEGRADED:
                key = outcome.reason or "unknown"
                reasons[key] = reasons.get(key, 0) + 1
        return reasons

    def rejected_by_reason(self) -> dict[str, int]:
        reasons: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.status == REJECTED:
                key = outcome.reason or "unknown"
                reasons[key] = reasons.get(key, 0) + 1
        return reasons

    def tokens_per_answer(self) -> float:
        """Total tokens per answered request — the serving economy metric."""
        answered = self.answered
        if not answered:
            return 0.0
        return (self.usage.input_tokens + self.usage.output_tokens) / answered

    def as_record(self) -> dict:
        """A flat, JSON-stable summary (all floats rounded)."""
        offered = self.offered
        record = {
            "offered": offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "served": self.served,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "shed_rate": round(self.shed / offered, 6) if offered else 0.0,
            "degraded_rate": (
                round(self.degraded / offered, 6) if offered else 0.0
            ),
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "degraded_by_reason": dict(sorted(self.degraded_by_reason().items())),
            "rejected_by_reason": dict(sorted(self.rejected_by_reason().items())),
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
            "max_latency": round(self.max_latency(), 6),
            "throughput_rps": round(self.throughput(), 6),
            "fairness": round(self.fairness(), 6),
            "per_tenant": dict(sorted(self.per_tenant().items())),
            "breaker_trips": self.breaker_trips,
            "max_queue_depth": self.max_queue_depth,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "mapping": self.mapping_stats,
            "llm_calls": self.usage.calls,
            "input_tokens": self.usage.input_tokens,
            "output_tokens": self.usage.output_tokens,
            "accounting_ok": self.accounted(),
        }
        if self.batching is not None:
            record["batching"] = self.batching
        return record


class _UdfState:
    """One database's long-lived UDF serving state."""

    def __init__(self, db, executor, cache, disk) -> None:
        self.db = db
        self.executor = executor
        self.cache = cache
        self.disk = disk


class _HqdlState:
    """One database's long-lived HQDL serving state (lazy materialization)."""

    def __init__(self, pipeline, recorder, disk, cache=None) -> None:
        self.pipeline = pipeline
        self.recorder = recorder
        self.disk = disk
        #: prompt cache in front of generation, only under cross-request
        #: batching: flushed generation prompts land here, so the first
        #: finalize materializes from cache instead of paying twice
        self.cache = cache
        self.db = None
        self.generation_sizes: list[tuple[int, int]] = []


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
        self.mapping_store = MappingStore()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=self.clock,
            report=self.resilience,
            telemetry=self._tel,
        )
        self.batcher: Optional[CrossRequestBatcher] = None
        if self.config.batching is not None:
            self.batcher = CrossRequestBatcher(
                self.config.batching,
                AdaptiveBatchPolicy.for_model(
                    self.config.model_name, self.config.shots
                ),
            )
        self._udf: dict[str, _UdfState] = {}
        self._hqdl: dict[str, _HqdlState] = {}
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

    # -- per-database pipeline state ----------------------------------------------

    def _base_model(self, world):
        return MockChatModel(
            KnowledgeOracle(world),
            get_profile(self.config.model_name),
            meter=self.meter,
        )

    def _wrap_faults(self, model):
        """The chaos-mode stack; a pass-through when fault_rate is 0."""
        if self.config.fault_rate <= 0:
            return model
        injector = FaultInjector(
            FaultPlan.uniform(self.config.fault_rate, seed=self.config.fault_seed)
        )
        return RetryingClient(
            FaultyClient(model, injector),
            RetryPolicy(seed=self.config.fault_seed),
            clock=self.clock,
            report=self.resilience,
            telemetry=self._tel,
        )

    def _wrap_disk(self, model, database: str):
        if self.config.cache_dir is None:
            return model, None
        disk = PersistentPromptCache(
            Path(self.config.cache_dir) / f"{database}.sqlite"
        )
        return (
            PersistentClient(
                model, disk, shots=self.config.shots, telemetry=self._tel
            ),
            disk,
        )

    def _udf_state(self, database: str) -> _UdfState:
        state = self._udf.get(database)
        if state is None:
            world = self.swan.world(database)
            model = self._wrap_faults(self._base_model(world))
            model, disk = self._wrap_disk(model, database)
            db = build_curated_database(world)
            cache = PromptCache()
            executor = HybridQueryExecutor(
                db,
                model,
                world,
                batch_size=self.config.batch_size,
                pushdown=self.config.pushdown,
                shots=self.config.shots,
                cache=cache,
                workers=self.config.workers,
                resilience=self.resilience,
                telemetry=self._tel,
                mapping_store=self.mapping_store,
            )
            executor.publish_mappings = self.config.share_mappings
            state = _UdfState(db, executor, cache, disk)
            self._udf[database] = state
        return state

    def _hqdl_state(self, database: str) -> _HqdlState:
        state = self._hqdl.get(database)
        if state is None:
            world = self.swan.world(database)
            recorder = _SizeRecorder(self._wrap_faults(self._base_model(world)))
            model, disk = self._wrap_disk(recorder, database)
            cache = None
            if self.batcher is not None:
                # flushed generation prompts must be reusable at finalize
                cache = PromptCache()
                model = CachingClient(model, cache, telemetry=self._tel)
            pipeline = HQDL(
                world,
                model,
                shots=self.config.shots,
                workers=self.config.workers,
                resilience=self.resilience,
                telemetry=self._tel,
            )
            state = _HqdlState(pipeline, recorder, disk, cache)
            self._hqdl[database] = state
        return state

    def close(self) -> None:
        """Release every database connection and disk cache."""
        for state in self._udf.values():
            state.db.close()
            if state.disk is not None:
                state.disk.close()
        self._udf.clear()
        for state in self._hqdl.values():
            if state.db is not None:
                state.db.close()
            if state.disk is not None:
                state.disk.close()
        self._hqdl.clear()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the event loop -----------------------------------------------------------

    def run(self, requests: Sequence[QueryRequest]) -> ServeReport:
        """Serve the whole stream; returns when the last outcome landed."""
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
                # a superseded release time (the group flushed earlier or
                # re-targeted); skipped without advancing the clock
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
        cache_hits = sum(s.cache.hits for s in self._udf.values())
        cache_misses = sum(s.cache.misses for s in self._udf.values())
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
            mapping_stats=self.mapping_store.stats(),
            resilience=self.resilience,
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
                ex=None,
                f1=None,
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
        land: Optional[float] = None,
        overhead_seconds: float = 0.0,
        llm_seconds: float = 0.0,
        backoff_seconds: float = 0.0,
        retries: int = 0,
        waves: Sequence[str] = (),
    ) -> None:
        """Append one terminal outcome's trace record (tracing on only)."""
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
            TraceRecord(
                request_id=request.request_id,
                trace_id=request.trace_id,
                tenant=request.tenant,
                database=request.database,
                pipeline=request.pipeline,
                priority=request.priority,
                arrival=request.arrival,
                deadline_at=request.deadline_at,
                status=outcome.status,
                reason=outcome.reason,
                finish=outcome.finish_time,
                queue_wait=outcome.queue_wait,
                start=start,
                land=land,
                overhead_seconds=overhead_seconds,
                llm_seconds=llm_seconds,
                backoff_seconds=backoff_seconds,
                retries=retries,
                llm_calls=outcome.llm_calls,
                input_tokens=outcome.input_tokens,
                output_tokens=outcome.output_tokens,
                shared_tokens=outcome.shared_tokens,
                degraded_keys=outcome.degraded_keys,
                rows=outcome.rows,
                promotions=promotions,
                waves=tuple(waves),
            )
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
            self._m_rejected.inc()
            outcome = RequestOutcome(
                request=request,
                status=REJECTED,
                reason=rejection.reason,
                finish_time=self.clock.now(),
                retry_after=rejection.retry_after,
            )
            self._record_outcome(outcome)
            self._trace_outcome(outcome)
            return outcome
        self._m_admitted.inc()
        self.queue.push(request)
        depth = len(self.queue)
        self._m_queue_depth.set(depth)
        if depth > self._max_queue_depth:
            self._max_queue_depth = depth
        return None

    def _dispatch_ready(self) -> list[RequestOutcome]:
        """Expire stale queue entries, then fill free service slots."""
        outcomes: list[RequestOutcome] = []
        now = self.clock.now()
        for request in self.queue.pop_expired(now):
            # the client gave up at its deadline instant, which is <= now;
            # this is a post-admission rejection, so admission's
            # offered == admitted + shed balance is untouched
            self.admission.on_expired_in_queue(request)
            self._m_rejected.inc()
            outcome = RequestOutcome(
                request=request,
                status=REJECTED,
                reason="deadline_expired",
                finish_time=request.deadline_at,
                queue_wait=request.deadline_seconds,
            )
            self._record_outcome(outcome)
            self._trace_outcome(outcome)
            outcomes.append(outcome)
        while self._in_service < self.config.max_concurrent:
            request = self.queue.pop(now, eligible=self.admission.can_dispatch)
            if request is None:
                break
            self.admission.on_dispatched(request)
            self._in_service += 1
            self._in_flight.add(request.trace_id)
            if self.batcher is not None:
                self._begin_batched(request)
            else:
                outcome = self._execute(request)
                self._push_event(outcome.finish_time, "finish", outcome)
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

    # -- request execution --------------------------------------------------------

    def _breaker_short_circuit(
        self, request: QueryRequest, start: float
    ) -> Optional[RequestOutcome]:
        """The outcome of a request dispatched while the breaker is open.

        ``None`` when the breaker lets the request through.  Otherwise
        the overload fast path: no LLM work, a NULL-degraded answer at
        the cheap fixed cost — availability preserved, quality shed.
        """
        try:
            self.breaker.before_call()
        except CircuitOpenError:
            finish = min(
                start + self.config.base_overhead, request.deadline_at
            )
            outcome = RequestOutcome(
                request=request,
                status=DEGRADED,
                reason="breaker_open",
                finish_time=finish,
                queue_wait=start - request.arrival,
                service_seconds=finish - start,
            )
            self._trace_outcome(outcome, start=start)
            return outcome
        return None

    def _execute(self, request: QueryRequest) -> RequestOutcome:
        """Run one dispatched request; returns its (future) outcome.

        The result is computed *now* in real time but delivered at the
        virtual ``finish_time`` the cost model assigns.  Requests are
        therefore serialized through the shared caches in dispatch
        order — the deterministic analogue of lock-ordered cache access.
        """
        start = self.clock.now()
        queue_wait = start - request.arrival
        remaining = request.deadline_seconds - queue_wait
        shed = self._breaker_short_circuit(request, start)
        if shed is not None:
            return shed
        timer = ServiceTimer(start)
        retries_before = self.resilience.retries
        usage_before = self.meter.total
        error: Optional[ReproError] = None
        rows: Optional[int] = None
        degraded_keys = 0
        call_sizes: list[tuple[int, int]] = []
        if request.pipeline == "udf":
            state = self._udf_state(request.database)
            executor = state.executor
            executor.deadline = Deadline(max(remaining, 1e-9), timer)
            try:
                result, report = executor.execute_with_report(request.sql)
                rows = len(result.rows)
                degraded_keys = report.degraded_keys
                call_sizes = list(report.call_sizes)
            except ReproError as exc:
                error = exc
            finally:
                executor.deadline = None
        else:
            state = self._hqdl_state(request.database)
            pipeline = state.pipeline
            try:
                if state.db is None:
                    # first touch pays materialization; later requests
                    # answer from the resident expanded database
                    mark = len(state.recorder.sizes)
                    pipeline.deadline = Deadline(max(remaining, 1e-9), timer)
                    try:
                        generation = pipeline.generate_all()
                    finally:
                        pipeline.deadline = None
                    state.generation_sizes = state.recorder.sizes[mark:]
                    state.db = pipeline.build_expanded_database(generation)
                    call_sizes = list(state.generation_sizes)
                result = pipeline.answer(
                    state.db, self.swan.question(request.qid)
                )
                rows = len(result.rows)
            except ReproError as exc:
                error = exc
        usage_delta = self.meter.total - usage_before
        llm_seconds = parallel_makespan(call_sizes, self.config.workers)
        service = self.config.base_overhead + llm_seconds + timer.elapsed
        self._service_ewma = (
            service
            if self._service_ewma is None
            else 0.8 * self._service_ewma + 0.2 * service
        )
        finish = start + service
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
            queue_wait=queue_wait,
            service_seconds=finish - start,
            rows=rows,
            llm_calls=usage_delta.calls,
            input_tokens=usage_delta.input_tokens,
            output_tokens=usage_delta.output_tokens,
            degraded_keys=degraded_keys,
            partial=status == DEGRADED and rows is not None,
        )
        self._trace_outcome(
            outcome,
            start=start,
            overhead_seconds=self.config.base_overhead,
            llm_seconds=llm_seconds,
            backoff_seconds=timer.elapsed,
            retries=self.resilience.retries - retries_before,
        )
        return outcome

    # -- cross-request batching ----------------------------------------------------
    #
    # With ``config.batching`` set, dispatch no longer executes a request
    # on the spot.  Instead its LLM demand is *planned* (the dry-run
    # planner of the executor / pipeline), pruned against the shared
    # mapping store and prompt caches, and enqueued into the
    # CrossRequestBatcher.  Flush events fire at the batcher's release
    # times; every group due at one instant flushes as a single *wave*
    # whose paid calls share one ``parallel_makespan`` pool — coalesced
    # batches are charged like the fan-out of a single request.  When the
    # wave lands, members with no work left are finalized: the query
    # replays against the request's private overlay store (all flushed
    # answers, zero LLM calls) and the outcome is delivered under the
    # same deadline-clamp / breaker rules as the unbatched path.

    def _begin_batched(self, request: QueryRequest) -> None:
        """Plan one dispatched request's LLM work into the batcher."""
        start = self.clock.now()
        queue_wait = start - request.arrival
        shed = self._breaker_short_circuit(request, start)
        if shed is not None:
            self._push_event(shed.finish_time, "finish", shed)
            return
        batcher = self.batcher
        member = PendingRequest(request, start=start, queue_wait=queue_wait)
        persist = batcher.config.persist
        if request.pipeline == "udf":
            state = self._udf_state(request.database)
            executor = state.executor
            try:
                member.query = parse(request.sql)
            except ReproError:
                # keep the text: the finalize pass re-raises the typed
                # error and the request degrades like any failed query
                pass
            map_requests, qa_prompts = executor.plan_key_requests(member.query)
            for call, keys in map_requests:
                signature = call.signature()
                wanted = list(dict.fromkeys(keys))
                if persist:
                    known = self.mapping_store.peek(signature, wanted)
                    # all-or-nothing, matching the executor's store-first
                    # lookup: partial coverage regenerates the whole
                    # occurrence (identical chunk prompts then hit the
                    # prompt cache for free at flush time)
                    if len(known) == len(wanted):
                        member.overlay.put(signature, known)
                        batcher.keys_from_store += len(known)
                        wanted = []
                already = member.overlay.peek(signature, wanted)
                if already:
                    wanted = [k for k in wanted if k not in already]
                if wanted:
                    # mc=1 keeps the executor's own chunk size (the
                    # byte-identity contract); with real concurrency the
                    # former fills policy-sized batches instead
                    chunk = (
                        executor._batch_size_for(call)
                        if self.config.max_concurrent == 1
                        else batcher.chunk_size_for(call)
                    )
                    batcher.enqueue_keys(
                        request.database, call, wanted, member,
                        chunk_size=chunk, now=start,
                    )
            for prompt in qa_prompts:
                if state.cache.peek(prompt) is None:
                    batcher.enqueue_prompt(
                        request.database, "udf:qa", prompt, member,
                        latency_bearing=False, now=start,
                    )
                else:
                    batcher.prompts_from_cache += 1
        else:
            hstate = self._hqdl_state(request.database)
            if hstate.db is None:
                for prompt, label in hstate.pipeline.plan_calls():
                    if hstate.cache.peek(prompt) is None:
                        batcher.enqueue_prompt(
                            request.database, label, prompt, member,
                            latency_bearing=True, now=start,
                        )
                    else:
                        batcher.prompts_from_cache += 1
        if member.outstanding == 0:
            # everything already covered by shared state: finalize at once
            outcome = self._finalize_batched(member, start)
            self._push_event(outcome.finish_time, "finish", outcome)
            return
        if self.config.max_concurrent == 1:
            # a second request can never be in service concurrently, so a
            # window could never coalesce anything: release immediately
            # (the byte-identity contract with the unbatched path)
            batcher.expedite(start)
            batcher.drain_releases()
            self._push_event(start, "flush", None)
            return
        for when in batcher.drain_releases():
            self._push_event(max(when, start), "flush", None)

    def _on_flush(self) -> None:
        """Flush every due group as one wave and schedule its landing."""
        now = self.clock.now()
        wave = self.batcher.collect_due(
            now, retain_tails=self.config.max_concurrent != 1
        )
        for when in self.batcher.drain_releases():
            # retained tails re-opened on a fresh window need their own
            # flush events
            self._push_event(max(when, now), "flush", None)
        if not wave:
            return
        members: dict[PendingRequest, int] = {}
        for group in wave:
            for _, requesters in group.items:
                for member in requesters:
                    members[member] = members.get(member, 0) + 1
        # the wave's dispatch budget ends at the earliest member deadline:
        # the batcher already guarantees no group is *released* late, and
        # this Deadline guarantees no retry backoff overruns it either
        wave_timer = ServiceTimer(now)
        min_deadline = min(m.request.deadline_at for m in members)
        deadline = Deadline(max(min_deadline - now, 1e-9), wave_timer)
        wave_sizes: list[tuple[int, int]] = []
        wave_calls = 0
        for group in wave:
            wave_calls += self._flush_group(group, deadline, wave_sizes, now)
        land = (
            now
            + parallel_makespan(wave_sizes, self.config.workers)
            + wave_timer.elapsed
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
                    items=sum(len(group.items) for group in wave),
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
        requests_in_group = len(
            {m for _, requesters in group.items for m in requesters}
        )
        calls_formed = 0
        if group.kind == "map":
            executor = self._udf_state(group.database).executor
            signature = group.call.signature()
            keys = [payload for payload, _ in group.items]
            requesters_of = dict(group.items)
            chunks = batched(keys, group.chunk_size)
            prompts = [
                executor._map_prompt(group.call, chunk) for chunk in chunks
            ]
            outcomes = executor.dispatcher.dispatch(
                executor.client, prompts, labels="udf:map",
                capture_errors=True, deadline=deadline,
            )
            calls_formed = len(chunks)
            for chunk, outcome in zip(chunks, outcomes):
                item_requesters = [requesters_of[key] for key in chunk]
                fill = len(chunk) / group.chunk_size
                if outcome.error is not None:
                    # same tolerance as the per-request path: the failed
                    # batch degrades to NULLs for every waiting request
                    for key, requesters in zip(chunk, item_requesters):
                        for member in requesters:
                            member.overlay.put(signature, {key: None})
                            member.degraded_keys += 1
                    self.resilience.record_degraded(len(chunk))
                    batcher.settle_call(item_requesters, None, fill=fill)
                    continue
                answers = _parse_map_answers(outcome.response.text, len(chunk))
                values = dict(zip(chunk, answers))
                for key, requesters in zip(chunk, item_requesters):
                    for member in requesters:
                        member.overlay.put(signature, {key: values[key]})
                if batcher.config.persist and executor.publish_mappings:
                    # only real answers, like the executor: degraded or
                    # drifted NULLs must not pin other requests to NULL
                    self.mapping_store.put(
                        signature,
                        {k: v for k, v in values.items() if v is not None},
                    )
                usage = outcome.response.usage
                if usage.calls and group.latency_bearing:
                    wave_sizes.append(
                        (usage.input_tokens, usage.output_tokens)
                    )
                batcher.settle_call(item_requesters, usage, fill=fill)
                if self._tel.timeseries.enabled:
                    self._tel.timeseries.observe(
                        "serve.batch_occupancy", now, fill
                    )
        else:
            prompts = [payload for payload, _ in group.items]
            if group.label.startswith("hqdl:"):
                pipeline = self._hqdl[group.database].pipeline
                dispatcher, client = pipeline._dispatcher, pipeline.client
            else:
                executor = self._udf_state(group.database).executor
                dispatcher, client = executor.dispatcher, executor.client
            outcomes = dispatcher.dispatch(
                client, prompts, labels=group.label,
                capture_errors=True, deadline=deadline,
            )
            calls_formed = len(prompts)
            for (prompt, requesters), outcome in zip(group.items, outcomes):
                if outcome.error is not None:
                    # left uncached: finalize re-attempts (and degrades
                    # there if the upstream is still failing)
                    batcher.settle_call([requesters], None)
                    continue
                # the dispatch went through the group's CachingClient, so
                # the completion is already cached for finalize
                usage = outcome.response.usage
                if usage.calls and group.latency_bearing:
                    wave_sizes.append(
                        (usage.input_tokens, usage.output_tokens)
                    )
                batcher.settle_call([requesters], usage)
        self._tel.flight.record(
            now, "batch_flush",
            label=group.label, trigger=group.trigger,
            items=len(group.items), calls=calls_formed,
            requests=requests_in_group,
        )
        return calls_formed

    def _on_land(self, payload: list[tuple[PendingRequest, int]]) -> None:
        """A wave landed: settle each member, finalize the completed ones."""
        land = self.clock.now()
        for member, item_count in payload:
            member.outstanding -= item_count
            if member.outstanding == 0:
                outcome = self._finalize_batched(member, land)
                self._push_event(outcome.finish_time, "finish", outcome)

    def _finalize_batched(
        self, member: PendingRequest, land: float
    ) -> RequestOutcome:
        """Replay the query against the member's overlay; deliver the outcome.

        Every flushed answer is in the overlay (or the prompt caches), so
        this replay is LLM-free in the common case; residual paid calls
        (e.g. a QA retry after a failed flush) are charged on top of the
        landing instant, exactly as the unbatched cost model would.
        """
        request = member.request
        timer = ServiceTimer(land)
        remaining = max(request.deadline_at - land, 1e-9)
        retries_before = self.resilience.retries
        usage_before = self.meter.total
        error: Optional[ReproError] = None
        rows: Optional[int] = None
        degraded_keys = 0
        call_sizes: list[tuple[int, int]] = []
        if request.pipeline == "udf":
            executor = self._udf_state(request.database).executor
            executor.deadline = Deadline(remaining, timer)
            saved_store = executor.mapping_store
            executor.mapping_store = member.overlay
            try:
                result, report = executor.execute_with_report(member.query)
                rows = len(result.rows)
                degraded_keys = report.degraded_keys
                call_sizes = list(report.call_sizes)
            except ReproError as exc:
                error = exc
            finally:
                executor.mapping_store = saved_store
                executor.deadline = None
        else:
            state = self._hqdl_state(request.database)
            pipeline = state.pipeline
            try:
                if state.db is None:
                    mark = len(state.recorder.sizes)
                    pipeline.deadline = Deadline(remaining, timer)
                    try:
                        generation = pipeline.generate_all()
                    finally:
                        pipeline.deadline = None
                    state.generation_sizes = state.recorder.sizes[mark:]
                    state.db = pipeline.build_expanded_database(generation)
                    call_sizes = list(state.generation_sizes)
                result = pipeline.answer(
                    state.db, self.swan.question(request.qid)
                )
                rows = len(result.rows)
            except ReproError as exc:
                error = exc
        usage_delta = self.meter.total - usage_before
        tail_llm = parallel_makespan(call_sizes, self.config.workers)
        tail = self.config.base_overhead + tail_llm + timer.elapsed
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
            land=land,
            overhead_seconds=self.config.base_overhead,
            llm_seconds=tail_llm,
            backoff_seconds=timer.elapsed,
            retries=self.resilience.retries - retries_before,
            waves=member.waves,
        )
        return outcome
