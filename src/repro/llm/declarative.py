"""A small declarative prompt-engineering toolkit (Section 4.3).

"It would be more convenient for users if the data system may
automatically generate prompts and examples based on the specific
context and query requirements.  A promising direction is to develop a
principled declarative prompt engineering toolkit."

This module provides that layer: a prompt is *declared* as an ordered
set of typed sections rather than assembled with string concatenation.
The HQDL row-completion prompt (:mod:`repro.core.prompts`) is expressed
on top of it, which gives three properties string-built prompts lack:

- **introspection** — callers can ask a prompt spec which sections it
  contains, how many demonstrations it carries, or its token budget
  before rendering;
- **validation** — a section with an empty payload fails at construction
  time, not as a silently malformed prompt;
- **stable rendering** — section order and separators are fixed by the
  spec, so prompt-format drift between builders and the model's parser
  becomes a type error rather than a runtime mystery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ReproError
from repro.llm.tokenizer import count_tokens


class PromptSpecError(ReproError):
    """Raised for structurally invalid prompt specifications."""


@dataclass(frozen=True)
class Section:
    """One typed block of a prompt.

    ``kind`` is a free-form label ('task', 'rule', 'schema', 'values',
    'demonstration', 'context', 'target', 'cue'); kinds drive
    introspection and let renderers treat classes of sections uniformly.
    """

    kind: str
    lines: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.kind:
            raise PromptSpecError("section kind must be non-empty")
        if not self.lines:
            raise PromptSpecError(f"section {self.kind!r} has no content")
        if any("\n" in line for line in self.lines):
            raise PromptSpecError(
                f"section {self.kind!r} lines must not embed newlines; "
                "pass one string per line instead"
            )

    def render(self) -> str:
        return "\n".join(self.lines)


@dataclass
class PromptSpec:
    """An ordered, introspectable prompt declaration."""

    sections: list[Section] = field(default_factory=list)

    # -- construction ----------------------------------------------------------

    def add(self, kind: str, *lines: str) -> "PromptSpec":
        """Append a section; returns self for fluent chaining."""
        self.sections.append(Section(kind, tuple(lines)))
        return self

    def add_task(self, *lines: str) -> "PromptSpec":
        return self.add("task", *lines)

    def add_rule(self, *lines: str) -> "PromptSpec":
        return self.add("rule", *lines)

    def add_schema(self, *lines: str) -> "PromptSpec":
        return self.add("schema", *lines)

    def add_values(self, *lines: str) -> "PromptSpec":
        return self.add("values", *lines)

    def add_demonstration(self, *lines: str) -> "PromptSpec":
        return self.add("demonstration", *lines)

    def add_context(self, *lines: str) -> "PromptSpec":
        return self.add("context", *lines)

    def add_target(self, *lines: str) -> "PromptSpec":
        return self.add("target", *lines)

    def add_cue(self, *lines: str) -> "PromptSpec":
        return self.add("cue", *lines)

    # -- introspection -----------------------------------------------------------

    def by_kind(self, kind: str) -> list[Section]:
        return [section for section in self.sections if section.kind == kind]

    def demonstration_count(self) -> int:
        return len(self.by_kind("demonstration"))

    def kinds(self) -> Iterator[str]:
        return (section.kind for section in self.sections)

    def token_estimate(self) -> int:
        """Approximate prompt size before sending (budgeting aid)."""
        return count_tokens(self.render())

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """The final prompt text, sections joined by single newlines."""
        if not self.sections:
            raise PromptSpecError("cannot render an empty prompt spec")
        return "\n".join(section.render() for section in self.sections)

    def validate(self, *, require: tuple[str, ...] = ()) -> None:
        """Assert the spec contains every required section kind."""
        present = set(self.kinds())
        missing = [kind for kind in require if kind not in present]
        if missing:
            raise PromptSpecError(
                f"prompt spec is missing required sections: {missing}"
            )

