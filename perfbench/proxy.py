"""A transparent ChatClient proxy: the benchmark's only probe inside a run.

``run_udf``/``run_hqdl`` accept ``wrap_client=``; this client goes there.  It
must not change what the pipeline does, so it forwards everything the
dispatcher looks at (``model_name``, ``prefers_batch_dispatch``,
``complete_many(deadline=)``) and only observes the responses on their way
back.  Cache-served responses (``usage.calls == 0``) are free and are not
counted as model work, the same rule the serving layer's size recorder uses.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from spans import SpanRecorder


class ProxyClient:
    def __init__(
        self,
        inner,
        spans: Optional[SpanRecorder] = None,
        span_name: str = "llm.complete",
        *,
        keep_prompts: bool = False,
    ) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.prefers_batch_dispatch = bool(
            getattr(inner, "prefers_batch_dispatch", False)
        )
        self._spans = spans
        self._span_name = span_name
        self._keep_prompts = keep_prompts
        #: (input, output) tokens of every paid call, in dispatch order
        self.call_sizes: list[tuple[int, int]] = []
        #: (prompt, completion) of every call seen, paid or not
        self.prompts: list[tuple[str, str]] = []

    def _observe(self, prompt: str, response) -> None:
        usage = response.usage
        if usage.calls:
            self.call_sizes.append((usage.input_tokens, usage.output_tokens))
        if self._keep_prompts:
            self.prompts.append((prompt, response.text))

    def complete(self, prompt: str, *, label: str = ""):
        start = perf_counter()
        response = self.inner.complete(prompt, label=label)
        end = perf_counter()
        if self._spans is not None:
            self._spans.add(self._span_name, start, end)
        self._observe(prompt, response)
        return response

    def complete_many(self, prompts, labels, *, deadline=None):
        start = perf_counter()
        if deadline is not None:
            responses = self.inner.complete_many(prompts, labels, deadline=deadline)
        else:
            responses = self.inner.complete_many(prompts, labels)
        end = perf_counter()
        if self._spans is not None:
            self._spans.add(self._span_name, start, end)
        for prompt, response in zip(prompts, responses):
            self._observe(prompt, response)
        return responses
