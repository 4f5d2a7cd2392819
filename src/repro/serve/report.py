"""What one serving run produced: :class:`ServeReport`.

Pure data over the run's :class:`~repro.serve.request.RequestOutcome`
list — percentiles, per-tenant shares, fairness, the accounting
trichotomy — with no dependency on the server that filled it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.llm.resilience import ResilienceReport
from repro.llm.usage import Usage
from repro.serve.request import DEGRADED, REJECTED, SERVED, RequestOutcome


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

    def _by_reason(self, status: str) -> dict[str, int]:
        reasons: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.status == status:
                key = outcome.reason or "unknown"
                reasons[key] = reasons.get(key, 0) + 1
        return reasons

    def degraded_by_reason(self) -> dict[str, int]:
        return self._by_reason(DEGRADED)

    def rejected_by_reason(self) -> dict[str, int]:
        return self._by_reason(REJECTED)

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
