"""Monetary-cost and latency analysis (Section 5.5).

"The monetary costs and the system's performance (e.g., latency and
throughput) are implicitly determined by the number of input and output
tokens."  This module makes that determination explicit: a
:class:`CostReport` turns metered usage into dollars (the paper's
pricing table), estimated wall-clock latency (the affine per-call model
in :mod:`repro.vtime`), and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.llm.usage import Usage
from repro.vtime import LatencyModel, parallel_makespan, sequential_makespan


@dataclass(frozen=True)
class CostReport:
    """Dollars, latency and throughput for one metered workload."""

    model: str
    usage: Usage
    dollars: float
    sequential_latency_s: float
    parallel_latency_s: float
    workers: int
    questions: int = 0

    @property
    def dollars_per_question(self) -> float:
        return self.dollars / self.questions if self.questions else 0.0

    @property
    def throughput_qps(self) -> float:
        """Questions per second under the parallel latency estimate."""
        if not self.questions or self.parallel_latency_s <= 0:
            return 0.0
        return self.questions / self.parallel_latency_s

    def summary(self) -> str:
        lines = [
            f"model: {self.model}",
            f"calls: {self.usage.calls}  tokens: "
            f"{self.usage.input_tokens} in / {self.usage.output_tokens} out",
            f"cost: ${self.dollars:.4f}"
            + (f" (${self.dollars_per_question:.4f}/question)"
               if self.questions else ""),
            f"latency: {self.sequential_latency_s:.1f}s sequential, "
            f"{self.parallel_latency_s:.1f}s at {self.workers} workers",
        ]
        if self.questions:
            lines.append(f"throughput: {self.throughput_qps:.2f} questions/s")
        return "\n".join(lines)


def _even_call_sizes(usage: Usage) -> list[tuple[int, int]]:
    """Approximate per-call sizes when only aggregates were metered."""
    if usage.calls == 0:
        return []
    input_each = usage.input_tokens // usage.calls
    output_each = usage.output_tokens // usage.calls
    return [(input_each, output_each)] * usage.calls


def estimate_costs(
    usage: Usage,
    model: str,
    *,
    call_sizes: Optional[Sequence[tuple[int, int]]] = None,
    latency_model: Optional[LatencyModel] = None,
    workers: int = 4,
    questions: int = 0,
) -> CostReport:
    """Build a :class:`CostReport` from metered usage.

    ``call_sizes`` (from :class:`~repro.pipeline.ExecutionReport`)
    gives exact per-call latencies; without it calls are assumed evenly
    sized, which is accurate for HQDL's homogeneous row prompts.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sizes = list(call_sizes) if call_sizes is not None else _even_call_sizes(usage)
    latency = latency_model or LatencyModel()
    return CostReport(
        model=model,
        usage=usage,
        dollars=usage.cost_usd(model),
        sequential_latency_s=sequential_makespan(sizes, latency),
        parallel_latency_s=parallel_makespan(sizes, workers, latency),
        workers=workers,
        questions=questions,
    )
