"""Batch sizing for LLMMap/LLMJoin key batching.

BlendSQL fixes the batch size at 5 keys per call (Section 4.3) and
defers smarter scheduling to future work.  The profiles in
:mod:`repro.llm.profiles` calibrate exactly the two effects that make
large batches risky:

- ``batch_item_factor`` — per-item knowledge decays geometrically with
  batch size (each extra key in the prompt dilutes attention);
- ``format_error_rate(shots)`` — the chance one completion misaligns its
  ``index. answer`` lines, which corrupts the *whole* batch.

:func:`adaptive_batch_size` inverts those curves: the largest batch
whose expected per-item accuracy loss and misalignment exposure stay
inside fixed budgets.  Fewer calls means fewer base-latency round trips
and less repeated prompt scaffolding — the token line item the paper's
Table 4 bills per call.
"""

from __future__ import annotations

import math

from repro.llm.batching import DEFAULT_BATCH_SIZE
from repro.llm.profiles import get_profile

#: Past ~20 keys the prompt outgrows the scaffolding it amortizes.
DEFAULT_MAX_BATCH_SIZE = 20
#: the relative per-item accuracy loss a batch may cost
MAX_ITEM_LOSS = 0.05
#: the expected keys a misaligned completion may lose per call
MISALIGN_BUDGET = 0.25


def explain_batch_size(
    model_name: str, shots: int = 0, *, floor: int = DEFAULT_BATCH_SIZE
) -> dict:
    """The chosen size and the caps behind it, for reports and BENCH JSON.

    Two caps, take the tighter, never below ``floor``:

    - **accuracy cap** — per-item accuracy scales with
      ``batch_item_factor ** (size - 1)``; the cap is the largest size
      whose relative loss stays within :data:`MAX_ITEM_LOSS`:
      ``1 + ln(1 - MAX_ITEM_LOSS) / ln(batch_item_factor)``.
    - **format cap** — a misaligned completion loses the whole batch, so
      the expected keys lost per call is ``rate * size``; the cap keeps
      it within :data:`MISALIGN_BUDGET` keys: ``MISALIGN_BUDGET / rate``.

    Worked examples (0 shots): gpt-3.5-turbo (factor 0.99, rate 0.04)
    → min(6, 6) = 6; gpt-4-turbo (0.993, 0.025) → min(8, 10) = 8;
    perfect (1.0, 0.0) → both caps infinite → the ceiling, 20.
    """
    if not 1 <= floor <= DEFAULT_MAX_BATCH_SIZE:
        raise ValueError(
            f"floor must be in [1, {DEFAULT_MAX_BATCH_SIZE}], got {floor}"
        )
    profile = get_profile(model_name)
    factor = profile.batch_item_factor
    rate = profile.format_error_rate(shots)
    accuracy_cap = (
        None if factor >= 1.0 else 1 + math.log(1 - MAX_ITEM_LOSS) / math.log(factor)
    )
    format_cap = None if rate <= 0 else MISALIGN_BUDGET / rate
    caps = [cap for cap in (accuracy_cap, format_cap) if cap is not None]
    size = DEFAULT_MAX_BATCH_SIZE
    if caps:
        size = max(floor, min(DEFAULT_MAX_BATCH_SIZE, int(min(caps))))
    return {
        "model": profile.name,
        "shots": shots,
        "accuracy_cap": round(accuracy_cap, 2) if accuracy_cap else None,
        "format_cap": round(format_cap, 2) if format_cap else None,
        "floor": floor,
        "ceiling": DEFAULT_MAX_BATCH_SIZE,
        "batch_size": size,
    }


def adaptive_batch_size(
    model_name: str, shots: int = 0, *, floor: int = DEFAULT_BATCH_SIZE
) -> int:
    """Keys per LLMMap/LLMJoin call for ``model_name`` at ``shots``."""
    return explain_batch_size(model_name, shots, floor=floor)["batch_size"]
