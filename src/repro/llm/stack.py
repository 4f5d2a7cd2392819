"""The client layering, written down once.

Every pipeline — the batch runners, the chaos runners, the query server —
talks to the same stack, innermost first::

    model       MockChatModel over the world's oracle
    wrap        whatever the caller slips directly around the model: a
                benchmark proxy, simulated latency, faults + retry
                (:func:`build_resilient_stack`)
    disk        PersistentClient over ``cache_dir/<database>.sqlite``

so disk hits bypass faults and the retry budget, and retries never
re-pay a completed call.  The memory tier belongs to the UDF executor,
which builds its ``CachingClient`` around whatever client it is given
from the :class:`~repro.llm.cache.PromptCache` its caller hands it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.llm.chat import MockChatModel
from repro.llm.client import ChatClient
from repro.llm.diskcache import PersistentClient, PersistentPromptCache
from repro.llm.faults import FaultInjector, FaultPlan, FaultyClient
from repro.llm.oracle import KnowledgeOracle
from repro.llm.profiles import get_profile
from repro.llm.resilience import (
    CircuitBreaker,
    ResilienceReport,
    RetryingClient,
    RetryPolicy,
)
from repro.llm.usage import UsageMeter
from repro.obs import Telemetry
from repro.swan.base import World
from repro.vtime import Clock, ServiceTimer


@dataclass
class ClientStack:
    """One database's client, plus the disk tier its owner must close."""

    client: ChatClient
    disk: Optional[PersistentPromptCache] = None

    def close(self) -> Optional[dict]:
        """Close the disk tier; its final stats, or None without one."""
        if self.disk is None:
            return None
        stats = self.disk.stats()
        self.disk.close()
        return stats


def build_client_stack(
    world: World,
    model_name: str,
    *,
    shots: int,
    meter: Optional[UsageMeter] = None,
    wrap: Optional[Callable[[ChatClient], ChatClient]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    telemetry: Optional[Telemetry] = None,
    provenance=None,
) -> ClientStack:
    """model -> wrap -> disk for one database (see module doc)."""
    client: ChatClient = MockChatModel(
        KnowledgeOracle(world), get_profile(model_name), meter=meter
    )
    if wrap is not None:
        client = wrap(client)
    disk = None
    if cache_dir is not None:
        disk = PersistentPromptCache(Path(cache_dir) / f"{world.name}.sqlite")
        client = PersistentClient(
            client, disk, shots=shots, telemetry=telemetry,
            provenance=provenance,
        )
    return ClientStack(client, disk)


def build_resilient_stack(
    model: ChatClient,
    *,
    plan: FaultPlan,
    injector: Optional[FaultInjector] = None,
    policy: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
    breaker: Optional[CircuitBreaker] = None,
    report: Optional[ResilienceReport] = None,
    telemetry: Optional[Telemetry] = None,
    provenance=None,
) -> RetryingClient:
    """model -> FaultyClient -> RetryingClient, the chaos ``wrap``.

    The cache layers go *on top*, so cache hits bypass both the faults
    and the retry budget — exactly the layering a production deployment
    would use.
    """
    injector = injector if injector is not None else FaultInjector(plan)
    return RetryingClient(
        FaultyClient(model, injector),
        policy,
        clock=clock if clock is not None else ServiceTimer(),
        breaker=breaker,
        report=report,
        telemetry=telemetry,
        provenance=provenance,
    )
