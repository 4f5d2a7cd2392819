"""Batch-size policies for LLMMap/LLMJoin key batching.

BlendSQL fixes the batch size at 5 keys per call (Section 4.3) and
defers smarter scheduling to future work.  The profiles in
:mod:`repro.llm.profiles` calibrate exactly the two effects that make
large batches risky:

- ``batch_item_factor`` — per-item knowledge decays geometrically with
  batch size (each extra key in the prompt dilutes attention);
- ``format_error_rate(shots)`` — the chance one completion misaligns its
  ``index. answer`` lines, which corrupts the *whole* batch.

:class:`AdaptiveBatchPolicy` inverts those curves: the largest batch
whose expected per-item accuracy loss and misalignment exposure stay
inside configured budgets.  Fewer calls means fewer base-latency round
trips and less repeated prompt scaffolding — the token line item the
paper's Table 4 bills per call.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.llm.batching import DEFAULT_BATCH_SIZE
from repro.llm.profiles import ModelProfile, get_profile

#: Past ~20 keys the prompt outgrows the scaffolding it amortizes.
DEFAULT_MAX_BATCH_SIZE = 20


class AdaptiveBatchPolicy:
    """Profile-driven batch sizing, bounded below by BlendSQL's default.

    Two caps, take the tighter:

    - **accuracy cap** — per-item accuracy scales with
      ``batch_item_factor ** (size - 1)``; the cap is the largest size
      whose relative loss stays within ``max_item_loss``:
      ``1 + ln(1 - max_item_loss) / ln(batch_item_factor)``.
    - **format cap** — a misaligned completion loses the whole batch, so
      the expected keys lost per call is ``rate * size``; the cap keeps
      it within ``misalign_budget`` keys: ``misalign_budget / rate``.

    Worked examples (0 shots): gpt-3.5-turbo (factor 0.99, rate 0.04)
    → min(6, 6) = 6; gpt-4-turbo (0.993, 0.025) → min(8, 10) = 8;
    perfect (1.0, 0.0) → both caps infinite → ceiling 20.
    """

    def __init__(
        self,
        profile: ModelProfile,
        shots: int = 0,
        *,
        floor: int = DEFAULT_BATCH_SIZE,
        ceiling: int = DEFAULT_MAX_BATCH_SIZE,
        max_item_loss: float = 0.05,
        misalign_budget: float = 0.25,
    ) -> None:
        if floor < 1:
            raise ValueError(f"floor must be >= 1, got {floor}")
        if ceiling < floor:
            raise ValueError(
                f"ceiling ({ceiling}) must be >= floor ({floor})"
            )
        if not 0 < max_item_loss < 1:
            raise ValueError(
                f"max_item_loss must be in (0, 1), got {max_item_loss}"
            )
        if misalign_budget <= 0:
            raise ValueError(
                f"misalign_budget must be > 0, got {misalign_budget}"
            )
        self.profile = profile
        self.shots = shots
        self.floor = floor
        self.ceiling = ceiling
        self.max_item_loss = max_item_loss
        self.misalign_budget = misalign_budget
        self._size = self._compute()

    @classmethod
    def for_model(cls, model_name: str, shots: int = 0, **kwargs) -> "AdaptiveBatchPolicy":
        return cls(get_profile(model_name), shots, **kwargs)

    def _compute(self) -> int:
        factor = self.profile.batch_item_factor
        if factor >= 1.0:
            accuracy_cap = math.inf
        else:
            accuracy_cap = 1 + math.log(1 - self.max_item_loss) / math.log(factor)
        rate = self.profile.format_error_rate(self.shots)
        format_cap = self.misalign_budget / rate if rate > 0 else math.inf
        cap = min(accuracy_cap, format_cap)
        if math.isinf(cap):
            return self.ceiling
        return max(self.floor, min(self.ceiling, int(cap)))

    def batch_size(self, call: Optional[object] = None) -> int:
        """The chosen size (``call`` accepted for per-attribute policies)."""
        return self._size

    def explain(self) -> dict:
        """The caps behind the choice, for reports and BENCH JSON."""
        factor = self.profile.batch_item_factor
        rate = self.profile.format_error_rate(self.shots)
        accuracy_cap = (
            None
            if factor >= 1.0
            else 1 + math.log(1 - self.max_item_loss) / math.log(factor)
        )
        format_cap = None if rate <= 0 else self.misalign_budget / rate
        return {
            "model": self.profile.name,
            "shots": self.shots,
            "accuracy_cap": round(accuracy_cap, 2) if accuracy_cap else None,
            "format_cap": round(format_cap, 2) if format_cap else None,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "batch_size": self._size,
        }
