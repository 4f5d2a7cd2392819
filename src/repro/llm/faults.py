"""Deterministic fault injection for the LLM stack.

Real deployments of the paper's pipelines see rate limits, timeouts,
transient 5xx errors, and malformed completions; the simulated stack sees
none of them, so the resilience layer (:mod:`repro.llm.resilience`) would
otherwise be untestable.  This module injects those failures *on purpose*
and *reproducibly*:

- :class:`FaultPlan` declares per-kind fault rates plus a seed;
- :class:`FaultInjector` turns the plan into per-call decisions that are
  pure functions of ``(seed, prompt, attempt)`` — no shared RNG stream —
  so the same plan produces the same faults no matter how many dispatcher
  threads race, and a retry of the same prompt sees a *fresh* draw;
- :class:`FaultyClient` wraps any :class:`~repro.llm.client.ChatClient`,
  raising the typed transient errors of :mod:`repro.errors` or corrupting
  completions (truncation, garbage CSV) to exercise extraction repair.

With every rate at 0 the wrapper is a byte-exact pass-through: same
completions, same usage, same cache behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import LLMTimeoutError, RateLimitError, TransientLLMError
from repro.llm.client import ChatClient, ChatResponse
from repro.stable import stable_uniform

#: Fault kinds in cumulative-draw order.  The first three raise typed
#: transient errors *before* the upstream call (no tokens are spent, as
#: with a real 429/503 rejection); the last two corrupt the completion
#: *after* it (the tokens are already paid for).
ERROR_KINDS = ("rate_limit", "timeout", "transient")
CORRUPTION_KINDS = ("truncate", "garbage")
FAULT_KINDS = ERROR_KINDS + CORRUPTION_KINDS

#: A row no extractor accepts: wrong field count, unbalanced quote.
GARBAGE_COMPLETION = "### garbage, 'unterminated,,,\n?!?"


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault rates (each in [0, 1], summing to <= 1).

    ``retry_after`` is the hint attached to injected rate-limit errors,
    mirroring the Retry-After header real providers send.
    """

    rate_limit: float = 0.0
    timeout: float = 0.0
    transient: float = 0.0
    truncate: float = 0.0
    garbage: float = 0.0
    seed: int = 0
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")
        if self.total_rate() > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates sum to {self.total_rate():.3f}, must be <= 1"
            )

    def total_rate(self) -> float:
        """The probability that any one call is faulted."""
        return sum(getattr(self, kind) for kind in FAULT_KINDS)

    @classmethod
    def uniform(
        cls, rate: float, *, seed: int = 0, corruption_share: float = 0.2
    ) -> "FaultPlan":
        """A mixed plan with total fault probability ``rate``.

        The error share (1 - ``corruption_share``) splits 2:1:1 across
        rate limits, timeouts, and generic transients — roughly the mix
        production API logs show — and the corruption share splits evenly
        between truncation and garbage.
        """
        if not 0.0 <= corruption_share <= 1.0:
            raise ValueError(
                f"corruption_share must be in [0, 1], got {corruption_share}"
            )
        errors = rate * (1.0 - corruption_share)
        corruption = rate * corruption_share
        return cls(
            rate_limit=errors * 0.5,
            timeout=errors * 0.25,
            transient=errors * 0.25,
            truncate=corruption * 0.5,
            garbage=corruption * 0.5,
            seed=seed,
        )


@dataclass
class FaultStats:
    """Thread-safe counts of decisions and injected faults by kind."""

    decisions: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, kind: str | None) -> None:
        with self._lock:
            self.decisions += 1
            if kind is not None:
                self.injected[kind] = self.injected.get(kind, 0) + 1

    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.injected)


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-call decisions.

    The decision for one call depends only on ``(seed, prompt, attempt)``
    — ``attempt`` being how many times *this injector* has seen the
    prompt — so fault sequences are identical across worker counts and
    runs, and each retry rolls independently (a faulted first attempt
    does not doom the retry).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def next_attempt(self, prompt: str) -> int:
        """The 1-based attempt number for this sighting of ``prompt``."""
        with self._lock:
            attempt = self._attempts.get(prompt, 0) + 1
            # keyed by text: an intent must not outlive its dispatch
            self._attempts[str(prompt)] = attempt
            return attempt

    def draw(self, prompt: str, attempt: int) -> str | None:
        """The fault kind for (prompt, attempt), or None for a clean call."""
        draw = stable_uniform("fault", self.plan.seed, prompt, attempt)
        cumulative = 0.0
        kind: str | None = None
        for candidate in FAULT_KINDS:
            cumulative += getattr(self.plan, candidate)
            if draw < cumulative:
                kind = candidate
                break
        self.stats.record(kind)
        return kind


class FaultyClient:
    """A ChatClient decorator that injects the plan's faults.

    Error faults raise *before* the upstream call (a rejected request
    costs no tokens); corruption faults rewrite the completion text
    *after* it (those tokens were spent), keeping usage accounting
    realistic in both directions.
    """

    def __init__(self, inner: ChatClient, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self.model_name = inner.model_name

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Complete through the inner client, injecting the drawn fault."""
        attempt = self.injector.next_attempt(prompt)
        kind = self.injector.draw(prompt, attempt)
        if kind == "rate_limit":
            raise RateLimitError(
                f"injected rate limit (attempt {attempt})",
                retry_after=self.injector.plan.retry_after,
            )
        if kind == "timeout":
            raise LLMTimeoutError(f"injected timeout (attempt {attempt})")
        if kind == "transient":
            raise TransientLLMError(f"injected transient error (attempt {attempt})")
        response = self.inner.complete(prompt, label=label)
        if kind == "truncate":
            return ChatResponse(
                response.text[: len(response.text) // 2], response.usage
            )
        if kind == "garbage":
            return ChatResponse(GARBAGE_COMPLETION, response.usage)
        return response
