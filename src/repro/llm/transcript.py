"""Call transcripts: record every prompt/completion pair.

Debugging a hybrid-query pipeline usually starts with "what did the
model actually see?".  :class:`TranscriptRecorder` wraps any
:class:`~repro.llm.client.ChatClient` and appends one JSON line per call
(prompt, completion, token counts, label) — to memory always, to a
``.jsonl`` file when a path is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.llm.client import ChatClient, ChatResponse


@dataclass(frozen=True)
class TranscriptEntry:
    """One recorded LLM call."""

    index: int
    label: str
    prompt: str
    completion: str
    input_tokens: int
    output_tokens: int

    def as_json(self) -> str:
        return json.dumps(
            {
                "index": self.index,
                "label": self.label,
                "prompt": self.prompt,
                "completion": self.completion,
                "input_tokens": self.input_tokens,
                "output_tokens": self.output_tokens,
            },
            ensure_ascii=False,
        )


class TranscriptRecorder:
    """A ChatClient decorator that logs every call."""

    def __init__(
        self,
        inner: ChatClient,
        *,
        path: Optional[Union[str, Path]] = None,
        keep_in_memory: bool = True,
    ) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.path = Path(path) if path is not None else None
        self.keep_in_memory = keep_in_memory
        self.entries: list[TranscriptEntry] = []
        self._count = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")  # truncate any previous transcript

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Call through to the wrapped client, recording the exchange."""
        response = self.inner.complete(prompt, label=label)
        entry = TranscriptEntry(
            index=self._count,
            label=label,
            prompt=str(prompt),
            completion=response.text,
            input_tokens=response.usage.input_tokens,
            output_tokens=response.usage.output_tokens,
        )
        self._count += 1
        if self.keep_in_memory:
            self.entries.append(entry)
        if self.path is not None:
            with self.path.open("a") as handle:
                handle.write(entry.as_json() + "\n")
        return response

    def __len__(self) -> int:
        return self._count

    def by_label(self, label: str) -> list[TranscriptEntry]:
        """In-memory entries recorded under one label."""
        return [entry for entry in self.entries if entry.label == label]


def load_transcript(path: Union[str, Path]) -> list[TranscriptEntry]:
    """Read a ``.jsonl`` transcript back into entries."""
    entries = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        entries.append(TranscriptEntry(**payload))
    return entries
