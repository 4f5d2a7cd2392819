"""Admission control: shed load at the front door, with receipts.

Overloaded servers that queue everything fail everything — latency grows
without bound and every client times out.  The
:class:`AdmissionController` instead refuses work it cannot serve in
time, at arrival, with a typed
:class:`~repro.errors.AdmissionRejectedError` carrying a stable reason
and a retry-after hint.  Three independent gates, checked in order:

1. **queue depth** (``queue_limit``) — global backpressure: once the
   scheduler's queue is full, new arrivals shed with ``queue_full``;
2. **tenant queue quota** (:attr:`TenantPolicy.max_queued`) — one noisy
   tenant cannot occupy the whole queue; its excess sheds with
   ``tenant_quota`` while other tenants still admit;
3. **token budget** (:attr:`TenantPolicy.token_budget`) — a tenant whose
   completed requests already spent their token allowance sheds with
   ``token_budget`` until the operator raises it.

The controller is also the accounting authority: every offered request
increments exactly one of ``admitted`` or ``shed`` (:meth:`accounted`
checks the balance), which the server's three-way outcome invariant
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import AdmissionRejectedError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.serve.request import QueryRequest


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission limits; ``None`` means unlimited.

    ``max_concurrent`` is enforced at *dispatch* (the scheduler skips
    the tenant's requests while it is at its cap) rather than admission:
    queued-but-not-running work should wait, not shed.
    """

    name: str
    max_queued: Optional[int] = None
    max_concurrent: Optional[int] = None
    token_budget: Optional[int] = None

    def __post_init__(self) -> None:
        for label in ("max_queued", "max_concurrent", "token_budget"):
            value = getattr(self, label)
            if value is not None and value < 1:
                raise ValueError(f"{label} must be >= 1 or None, got {value}")


class AdmissionController:
    """The admission gate plus per-tenant bookkeeping behind it."""

    def __init__(
        self,
        queue_limit: int,
        policies: Optional[dict[str, TenantPolicy]] = None,
        *,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.queue_limit = queue_limit
        self.policies = dict(policies) if policies else {}
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: dict[str, int] = {}
        #: requests currently admitted but not yet dispatched, per tenant
        self.queued: dict[str, int] = {}
        #: requests currently executing, per tenant
        self.in_service: dict[str, int] = {}
        #: tokens charged to completed requests, per tenant
        self.tokens_spent: dict[str, int] = {}
        #: of those, tokens attributed from LLM calls *shared* with other
        #: requests by the cross-request batcher — the fairly split cost
        #: of coalesced batches, a subset of ``tokens_spent``
        self.tokens_shared: dict[str, int] = {}

    def total_queued(self) -> int:
        return sum(self.queued.values())

    def admit(
        self, request: QueryRequest, *, retry_after: Optional[float] = None
    ) -> Optional[AdmissionRejectedError]:
        """Admit ``request`` or return the typed rejection (never raises).

        Exactly one of ``admitted``/``shed`` is incremented per call, so
        ``offered == admitted + shed`` holds at every instant.
        """
        self.offered += 1
        rejection = self._check(request, retry_after)
        # admission decisions happen at the request's arrival instant,
        # so telemetry is timestamped from the request, not a clock
        if rejection is not None:
            self.shed += 1
            self.shed_by_reason[rejection.reason] = (
                self.shed_by_reason.get(rejection.reason, 0) + 1
            )
            if self._tel.timeseries.enabled:
                self._tel.timeseries.record(
                    "admission.shed", request.arrival,
                    tenant=request.tenant, reason=rejection.reason,
                )
            self._tel.flight.record(
                request.arrival, "shed",
                tenant=request.tenant, reason=rejection.reason,
                request_id=request.request_id, trace_id=request.trace_id,
            )
            return rejection
        self.admitted += 1
        self.queued[request.tenant] = self.queued.get(request.tenant, 0) + 1
        if self._tel.timeseries.enabled:
            self._tel.timeseries.record(
                "admission.admitted", request.arrival, tenant=request.tenant
            )
        self._tel.flight.record(
            request.arrival, "admit",
            tenant=request.tenant, request_id=request.request_id,
            trace_id=request.trace_id,
        )
        return None

    def _check(
        self, request: QueryRequest, retry_after: Optional[float]
    ) -> Optional[AdmissionRejectedError]:
        if self.total_queued() >= self.queue_limit:
            return AdmissionRejectedError(
                f"queue is full ({self.queue_limit} requests)",
                reason="queue_full",
                retry_after=retry_after,
            )
        policy = self.policies.get(request.tenant)
        if policy is None:
            return None
        if (
            policy.max_queued is not None
            and self.queued.get(request.tenant, 0) >= policy.max_queued
        ):
            return AdmissionRejectedError(
                f"tenant {request.tenant!r} already has "
                f"{policy.max_queued} requests queued",
                reason="tenant_quota",
                retry_after=retry_after,
            )
        if (
            policy.token_budget is not None
            and self.tokens_spent.get(request.tenant, 0) >= policy.token_budget
        ):
            # no retry-after: a spent budget does not refill on its own
            return AdmissionRejectedError(
                f"tenant {request.tenant!r} spent its token budget "
                f"({policy.token_budget} tokens)",
                reason="token_budget",
            )
        return None

    def can_dispatch(self, request: QueryRequest) -> bool:
        """True unless the tenant is at its concurrency cap."""
        policy = self.policies.get(request.tenant)
        if policy is None or policy.max_concurrent is None:
            return True
        return self.in_service.get(request.tenant, 0) < policy.max_concurrent

    def on_dispatched(self, request: QueryRequest) -> None:
        self.queued[request.tenant] = self.queued.get(request.tenant, 1) - 1
        self.in_service[request.tenant] = (
            self.in_service.get(request.tenant, 0) + 1
        )

    def on_finished(
        self, request: QueryRequest, tokens: int = 0, *, shared_tokens: int = 0
    ) -> None:
        self.in_service[request.tenant] = (
            self.in_service.get(request.tenant, 1) - 1
        )
        if tokens:
            self.tokens_spent[request.tenant] = (
                self.tokens_spent.get(request.tenant, 0) + tokens
            )
        if shared_tokens:
            self.tokens_shared[request.tenant] = (
                self.tokens_shared.get(request.tenant, 0) + shared_tokens
            )

    def on_expired_in_queue(self, request: QueryRequest) -> None:
        """A queued request's deadline passed before dispatch."""
        self.queued[request.tenant] = self.queued.get(request.tenant, 1) - 1
        self._tel.flight.record(
            request.deadline_at, "deadline_reap",
            tenant=request.tenant, request_id=request.request_id,
            trace_id=request.trace_id,
        )

    def accounted(self) -> bool:
        """The admission balance: every offer admitted or shed, never both."""
        return self.offered == self.admitted + self.shed and self.shed == sum(
            self.shed_by_reason.values()
        )
