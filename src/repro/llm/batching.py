"""Batching of LLM calls.

BlendSQL batches keys (default 5 per call) to cut the number of requests,
at a small accuracy cost (Section 5.4).  This module provides the
batching helper used by the UDF executor.  The latency model and the
makespan functions live in :mod:`repro.vtime` and are re-exported here.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.vtime import (  # noqa: F401 - re-exported
    LatencyModel, parallel_makespan, sequential_makespan,
)

T = TypeVar("T")

#: BlendSQL's default batch size (Section 5.4).
DEFAULT_BATCH_SIZE = 5


def batched(items: Sequence[T], size: int) -> list[list[T]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return [list(items[start : start + size]) for start in range(0, len(items), size)]
