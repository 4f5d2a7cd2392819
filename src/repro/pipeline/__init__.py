"""The staged contract both pipelines implement.

HQDL generates values for (expansion, key) once per database (paper
Section 4.1), Hybrid Query UDFs once per query (Section 4.2): they
differ in *when* they generate, not in *what*, so both run as the same
three stages and every caller drives them through :class:`Pipeline`.
``prepare(query)`` lists a query's LLM work (``plan.work()``) and calls
no LLM; ``generate(plan, *, deadline=None, known=None)`` pays for it;
``run(plan, fillings)`` answers from what was paid.  A caller paying
for work its own way (the server's waves) uses the pipeline's
``dispatcher`` and ``client`` and hands ``generate`` what it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Protocol, Sequence, runtime_checkable

from repro.llm.client import ChatClient
from repro.llm.parallel import ParallelDispatcher
from repro.llm.resilience import Deadline
from repro.llm.usage import Usage
from repro.sqlengine.results import ResultSet
from repro.vtime import LatencyModel, parallel_makespan, sequential_makespan


@dataclass
class ExecutionReport:
    """Diagnostics for one hybrid query execution."""

    keys_generated: int = 0
    keys_after_pushdown: dict[str, int] = field(default_factory=dict)
    rewritten_sql: str = ""
    #: (input_tokens, output_tokens) of each paid (non-cached) LLM call,
    #: the input to the latency/parallelism model in repro.vtime.
    call_sizes: list[tuple[int, int]] = field(default_factory=list)
    #: batches whose LLM call ultimately failed (after any retry layer
    #: gave up) and were degraded to NULL answers, and the keys they held.
    degraded_batches: int = 0
    degraded_keys: int = 0
    #: one tuple per distinct size: an HQDL generation's report holds
    #: thousands of row calls but only hundreds of distinct sizes
    _sizes: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def llm_calls(self) -> int:
        """Paid calls: one per entry of ``call_sizes``."""
        return len(self.call_sizes)

    def charge(self, usage: Usage) -> None:
        """Count one completed call, if it was paid (cache hits are free)."""
        if usage.calls:
            size = (usage.input_tokens, usage.output_tokens)
            self.call_sizes.append(self._sizes.setdefault(size, size))

    def estimated_latency(
        self, workers: int = 1, model: Optional[LatencyModel] = None
    ) -> float:
        """Estimated wall-clock seconds for this query's LLM traffic.

        ``workers=1`` is sequential BlendSQL behaviour; higher values
        model the parallel execution that
        :class:`~repro.llm.parallel.ParallelDispatcher` performs for
        real when the executor gets a ``workers`` knob > 1.
        """
        if workers <= 1:
            return sequential_makespan(self.call_sizes, model)
        return parallel_makespan(self.call_sizes, workers, model)


class Work(NamedTuple):
    """One unit of a plan's LLM demand: an LLMMap/LLMJoin's distinct
    ``keys`` (``chunk_size`` per call), or one whole ``prompt`` (an
    LLMQA, an HQDL row).  Either kind is paid through the pipeline's
    dispatcher, and every paid call lands in its ``ExecutionReport``."""

    call: object
    keys: Sequence[tuple]
    chunk_size: int
    prompt: Optional[str] = None
    label: str = ""


class Fillings(NamedTuple):
    """What ``generate`` paid for, shaped for its pipeline's ``run``."""

    answers: tuple
    report: ExecutionReport


class Plan(Protocol):
    """A prepared query: ``work()`` is its LLM demand, in dispatch order."""

    def work(self) -> tuple[Work, ...]: ...


@runtime_checkable
class Pipeline(Protocol):
    """prepare → generate → run, over one database (see module doc)."""

    client: ChatClient
    dispatcher: ParallelDispatcher

    def prepare(self, query) -> Plan: ...

    def generate(
        self,
        plan: Plan,
        *,
        deadline: Optional[Deadline] = None,
        known: Optional[dict] = None,
    ) -> Fillings: ...

    def run(
        self, plan: Plan, fillings: Fillings
    ) -> tuple[ResultSet, ExecutionReport]: ...

    def execute_with_report(self, query) -> tuple[ResultSet, ExecutionReport]: ...
