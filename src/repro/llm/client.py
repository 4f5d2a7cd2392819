"""Client protocol for chat models, plus test doubles.

Everything that talks to an LLM in this library goes through the
:class:`ChatClient` protocol, so pipelines are oblivious to whether they
are driving the simulated :class:`~repro.llm.chat.MockChatModel`, a
caching wrapper, or a scripted stand-in inside a unit test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

from repro.errors import LLMError
from repro.llm.tokenizer import count_tokens
from repro.llm.usage import Usage, UsageMeter


@dataclass(frozen=True)
class ChatResponse:
    """One completion: the text plus the usage it cost."""

    text: str
    usage: Usage


@runtime_checkable
class ChatClient(Protocol):
    """Anything that can complete a prompt."""

    model_name: str

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Complete ``prompt`` and account for its tokens."""
        ...  # pragma: no cover - protocol


class ScriptedClient:
    """A deterministic test double that replays canned completions.

    Accepts either a list (consumed in order) or a dict keyed by an exact
    prompt or by a substring — when several substring keys match, the
    longest (most specific) one wins; an exact-key match always beats a
    substring match.  Raises :class:`LLMError` when no scripted answer
    matches, so tests fail loudly on unexpected prompts.

    Thread-safety: prompt recording and answer selection happen as *one*
    atomic step under the internal lock, and the chosen answer is paired
    with its prompt in :attr:`calls` — so under the parallel dispatcher
    ``prompts[i]`` always consumed queue entry ``i``, and tests can
    assert exactly which response each racing prompt received.
    """

    def __init__(
        self,
        responses: Iterable[str] | dict[str, str],
        *,
        model_name: str = "scripted",
        meter: UsageMeter | None = None,
    ) -> None:
        self.model_name = model_name
        self.meter = meter or UsageMeter()
        self.prompts: list[str] = []
        #: (prompt, chosen response) pairs, recorded atomically with the
        #: queue pop / dict lookup that produced them.
        self.calls: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        if isinstance(responses, dict):
            self._by_key = dict(responses)
            self._queue: list[str] = []
        else:
            self._by_key = {}
            self._queue = list(responses)

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Replay the scripted answer for this prompt, metering tokens."""
        prompt = str(prompt)  # the ledger keeps text, never an intent
        with self._lock:
            self.prompts.append(prompt)
            try:
                text = self._lookup(prompt)
            except LLMError:
                # keep prompts/calls aligned even on a scripting miss, so
                # concurrent failures cannot skew later pairings
                self.prompts.pop()
                raise
            self.calls.append((prompt, text))
        usage = self.meter.record(count_tokens(prompt), count_tokens(text), label)
        return ChatResponse(text, usage)

    def _lookup(self, prompt: str) -> str:
        if self._queue:
            return self._queue.pop(0)
        if prompt in self._by_key:
            return self._by_key[prompt]
        # among substring keys, the longest match is the most specific;
        # ties keep insertion order
        best_key: str | None = None
        for key in self._by_key:
            if key in prompt and (best_key is None or len(key) > len(best_key)):
                best_key = key
        if best_key is not None:
            return self._by_key[best_key]
        raise LLMError(
            f"ScriptedClient has no response for prompt starting "
            f"{prompt[:80]!r}"
        )
