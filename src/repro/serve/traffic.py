"""Deterministic synthetic tenant traffic for the query server.

Load tests need traffic that looks like production — independent
tenants, Poisson arrivals, periodic bursts, mixed pipelines — but
replays *identically* across runs and machines, or latency percentiles
are not comparable.  Every random choice here is a
:func:`~repro.stable.stable_uniform` draw keyed by ``(seed, tenant,
index)``: no RNG stream, no ordering sensitivity, identical traffic for
the same spec on any platform.

A :class:`TenantSpec` describes one tenant's behaviour;
:func:`generate_traffic` expands a list of specs over a virtual-time
horizon into the arrival-ordered :class:`~repro.serve.request.
QueryRequest` list the server consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.serve.admission import TenantPolicy
from repro.serve.request import QueryRequest
from repro.stable import stable_uniform
from repro.swan.benchmark import Swan


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic shape and admission limits.

    ``rate`` is the mean Poisson arrival rate in requests per virtual
    second; ``burst_every``/``burst_size`` adds a simultaneous clump of
    requests at every multiple of ``burst_every`` seconds on top of the
    Poisson process (the pattern that actually breaks naive servers).
    ``hqdl_share`` of requests go through the HQDL pipeline instead of
    UDFs.  The admission fields mirror :class:`~repro.serve.admission.
    TenantPolicy`.
    """

    name: str
    rate: float
    priority: int = 1
    deadline_seconds: float = 60.0
    databases: Optional[tuple[str, ...]] = None
    burst_every: Optional[float] = None
    burst_size: int = 0
    hqdl_share: float = 0.0
    max_queued: Optional[int] = None
    max_concurrent: Optional[int] = None
    token_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if not 0.0 <= self.hqdl_share <= 1.0:
            raise ValueError(
                f"hqdl_share must be in [0, 1], got {self.hqdl_share}"
            )
        if self.burst_every is not None and self.burst_every <= 0:
            raise ValueError(
                f"burst_every must be > 0 or None, got {self.burst_every}"
            )

    def policy(self) -> TenantPolicy:
        return TenantPolicy(
            name=self.name,
            max_queued=self.max_queued,
            max_concurrent=self.max_concurrent,
            token_budget=self.token_budget,
        )

    def scaled(self, multiplier: float) -> "TenantSpec":
        """The same tenant at ``multiplier ×`` the offered load."""
        burst = self.burst_size
        if burst:
            burst = max(1, round(burst * multiplier))
        return TenantSpec(
            name=self.name,
            rate=self.rate * multiplier,
            priority=self.priority,
            deadline_seconds=self.deadline_seconds,
            databases=self.databases,
            burst_every=self.burst_every,
            burst_size=burst,
            hqdl_share=self.hqdl_share,
            max_queued=self.max_queued,
            max_concurrent=self.max_concurrent,
            token_budget=self.token_budget,
        )


def _pick_question(swan: Swan, spec: TenantSpec, seed: int, tag: object):
    """One (database, question) draw for an arrival, seed-stable."""
    names = (
        list(spec.databases)
        if spec.databases is not None
        else swan.database_names()
    )
    db = names[int(stable_uniform("serve:db", seed, spec.name, tag) * len(names))]
    questions = swan.questions_for(db)
    question = questions[
        int(stable_uniform("serve:q", seed, spec.name, tag) * len(questions))
    ]
    return db, question


def _pipeline_for(spec: TenantSpec, seed: int, tag: object) -> str:
    if spec.hqdl_share <= 0.0:
        return "udf"
    draw = stable_uniform("serve:pipe", seed, spec.name, tag)
    return "hqdl" if draw < spec.hqdl_share else "udf"


def generate_traffic(
    swan: Swan,
    tenants: Sequence[TenantSpec],
    *,
    horizon: float,
    seed: int = 0,
) -> list[QueryRequest]:
    """Expand tenant specs into an arrival-ordered request list.

    Two calls with the same ``(swan, tenants, horizon, seed)`` return
    identical lists — arrival times, question choices, request ids, all
    of it — which is what makes the load test's BENCH JSON byte-stable.
    """
    if horizon <= 0:
        raise ReproError(f"horizon must be > 0 seconds, got {horizon}")
    if not tenants:
        raise ReproError("at least one TenantSpec is required")
    arrivals: list[tuple[float, str, int, TenantSpec, str, object]] = []
    for spec in tenants:
        for name in spec.databases or ():
            if name not in swan.database_names():
                raise ReproError(
                    f"tenant {spec.name!r} references unknown database "
                    f"{name!r}; valid: {', '.join(swan.database_names())}"
                )
        # Poisson process: exponential inter-arrival gaps, each drawn
        # from the (seed, tenant, index) hash — not a sequential RNG
        time = 0.0
        index = 0
        while spec.rate > 0:
            draw = stable_uniform("serve:gap", seed, spec.name, index)
            time += -math.log(1.0 - min(draw, 1.0 - 1e-12)) / spec.rate
            if time >= horizon:
                break
            db, question = _pick_question(swan, spec, seed, index)
            pipeline = _pipeline_for(spec, seed, index)
            arrivals.append(
                (time, spec.name, index, spec, question.qid, (db, question, pipeline))
            )
            index += 1
        # bursts: `burst_size` simultaneous arrivals every `burst_every`
        # seconds — the clumped pattern Poisson alone underrepresents
        if spec.burst_every is not None and spec.burst_size > 0:
            beat = 1
            while beat * spec.burst_every < horizon:
                when = beat * spec.burst_every
                for j in range(spec.burst_size):
                    tag = f"burst:{beat}:{j}"
                    db, question = _pick_question(swan, spec, seed, tag)
                    pipeline = _pipeline_for(spec, seed, tag)
                    arrivals.append(
                        (
                            when, spec.name, index, spec, question.qid,
                            (db, question, pipeline),
                        )
                    )
                    index += 1
                beat += 1
    arrivals.sort(key=lambda a: (a[0], a[1], a[2]))
    requests: list[QueryRequest] = []
    for request_id, (time, _, _, spec, qid, (db, question, pipeline)) in enumerate(
        arrivals
    ):
        requests.append(
            QueryRequest(
                request_id=request_id,
                tenant=spec.name,
                database=db,
                sql=question.blend_sql,
                arrival=time,
                pipeline=pipeline,
                qid=qid,
                priority=spec.priority,
                deadline_seconds=spec.deadline_seconds,
            )
        )
    return requests
