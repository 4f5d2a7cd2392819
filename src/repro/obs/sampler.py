"""Deterministic tail-based trace sampling.

Head-based sampling (flip a coin at arrival) is cheap but blind: the
traces worth keeping — the degraded, the rejected, the slow — are
exactly the ones a uniform coin drops.  The :class:`TailSampler` instead
decides *after* each request terminates, when the outcome is known:

1. **outcome** — every trace that did not end in a clean serve is kept
   unconditionally (degraded, rejected, deadline-reaped, circuit-open);
2. **slowest** — among clean serves, the slowest ``slowest_k`` per
   finish window are kept, so latency regressions inside the SLO still
   leave evidence;
3. **hash** — the remainder keep with probability ``sample_rate`` by a
   stable hash of ``(seed, trace_id)`` — no RNG state, so the kept set
   is a pure function of the run's outcomes and the sampler config.

Everything runs on the virtual clock and plain request data, so the
same run always keeps the same traces, byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.obs.timeseries import DEFAULT_WINDOW_SECONDS
from repro.stable import stable_uniform

#: kept because the outcome was not a clean serve
KEEP_OUTCOME = "outcome"
#: kept as one of the slowest-k clean serves in its finish window
KEEP_SLOWEST = "slowest"
#: kept by the stable hash draw
KEEP_HASH = "hash"


class Sampleable(Protocol):
    """What the sampler needs to know about one finished request."""

    trace_id: str

    @property
    def status(self) -> str: ...

    @property
    def finish(self) -> float: ...

    @property
    def latency(self) -> float: ...


class TailSampler:
    """Decide which finished-request traces to keep, deterministically."""

    def __init__(
        self,
        *,
        seed: int = 0,
        slowest_k: int = 3,
        sample_rate: float = 0.0,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ) -> None:
        if slowest_k < 0:
            raise ValueError(f"slowest_k must be >= 0, got {slowest_k}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be > 0, got {window_seconds}"
            )
        self.seed = seed
        self.slowest_k = slowest_k
        self.sample_rate = sample_rate
        self.window_seconds = window_seconds

    def decide(self, records: Iterable[Sampleable]) -> dict[str, str]:
        """Map each kept trace id to the reason it was kept.

        Input order does not matter: slowest-k ties break by trace id,
        and the hash draw depends only on ``(seed, trace_id)``.
        """
        kept: dict[str, str] = {}
        by_window: dict[int, list[Sampleable]] = {}
        for record in records:
            if record.status != "served":
                kept[record.trace_id] = KEEP_OUTCOME
                continue
            window = int(record.finish // self.window_seconds)
            by_window.setdefault(window, []).append(record)
        for window in sorted(by_window):
            ranked = sorted(
                by_window[window],
                key=lambda r: (-r.latency, r.trace_id),
            )
            for record in ranked[: self.slowest_k]:
                kept[record.trace_id] = KEEP_SLOWEST
            for record in ranked[self.slowest_k:]:
                if (
                    self.sample_rate > 0.0
                    and stable_uniform(str(self.seed), record.trace_id)
                    < self.sample_rate
                ):
                    kept[record.trace_id] = KEEP_HASH
        return kept

    def stats(self, decisions: dict[str, str], total: int) -> dict:
        """Aggregate keep/drop counts for bench payloads."""
        by_reason = {KEEP_OUTCOME: 0, KEEP_SLOWEST: 0, KEEP_HASH: 0}
        for reason in decisions.values():
            by_reason[reason] += 1
        return {
            "total": total,
            "kept": len(decisions),
            "dropped": total - len(decisions),
            "kept_by_reason": by_reason,
        }
