"""HQDL prompt construction (paper Section 4.1.1).

The prompt format follows the paper's example verbatim in structure:
task statement, the 'No Explanation' rule, the column list, the retained
value lists for selection columns, optional few-shot demonstrations
(static rows from the original database), the target entry, and the field
count.  Marker strings are imported from :mod:`repro.llm.chat` so the
simulated model and this builder can never drift apart.

Prompts are declared through the :mod:`repro.llm.declarative` toolkit
(the Section 4.3 "principled declarative prompt engineering" direction):
:meth:`RowPromptBuilder.build_spec` exposes the structured
:class:`~repro.llm.declarative.PromptSpec` and :meth:`RowPromptBuilder.build`
renders it to text.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.llm.chat import (
    ANSWER_MARKER,
    COLUMNS_MARKER,
    CONTEXT_ROW_MARKER,
    EXAMPLE_ENTRY_MARKER,
    TARGET_ENTRY_MARKER,
    VALUES_HINT_MARKER,
    quote_field,
)
from repro.llm.declarative import PromptSpec
from repro.llm.oracle import KnowledgeOracle
from repro.swan.base import ExpansionTable, World
from repro.swan.worlds.util import det_sample

#: Cap on how many values of a retained list are spelled out in the prompt;
#: long lists are elided the way the paper's example uses "...".
MAX_LISTED_VALUES = 40


class RowPromptBuilder:
    """Builds row-completion prompts for one expansion table."""

    def __init__(
        self,
        world: World,
        expansion: ExpansionTable,
        *,
        shots: int = 0,
        context_provider: Optional[Callable[[tuple], list[str]]] = None,
    ) -> None:
        if shots < 0:
            raise ValueError(f"shots must be >= 0, got {shots}")
        self.world = world
        self.expansion = expansion
        self.shots = shots
        self.context_provider = context_provider
        self._oracle = KnowledgeOracle(world)
        self._static_demos = self._select_demonstrations()
        # Pre-rendered constant prompt parts for `build` without context:
        # everything before the target entry (and everything after it) is
        # the same string for every key, so it is rendered exactly once.
        self._prefix: Optional[str] = None
        self._suffix: Optional[str] = None

    # -- section content ---------------------------------------------------------

    def _task_line(self) -> str:
        return (
            "Your task is to fill in the missing values in the target entry "
            f"from the `{self.expansion.name}` table of the "
            f"`{self.world.name}` database."
        )

    def _columns_line(self) -> str:
        columns = self.expansion.all_column_names()
        return COLUMNS_MARKER + " " + ",".join(f"`{name}`" for name in columns)

    def _value_hint_lines(self) -> list[str]:
        lines = []
        for column in self.expansion.columns:
            if not column.value_list:
                continue
            values = self.world.value_lists.get(column.value_list, [])
            shown = values[:MAX_LISTED_VALUES]
            rendered = ", ".join(f"'{v}'" for v in shown)
            ellipsis = ", ..." if len(values) > len(shown) else ""
            lines.append(
                f"{VALUES_HINT_MARKER} `{column.name}` are [{rendered}{ellipsis}]"
            )
        return lines

    def _select_demonstrations(self) -> list[tuple]:
        """Static demonstration keys, the same for every prompt (Section 5.2)."""
        if self.shots == 0:
            return []
        keys = sorted(self.world.truth[self.expansion.name].keys())
        count = min(self.shots, len(keys))
        return det_sample(
            keys, count, "hqdl-demos", self.world.name, self.expansion.name
        )

    def _entry_line(self, key: tuple) -> str:
        fields = [quote_field(str(part)) for part in key]
        fields.extend("?" for _ in self.expansion.columns)
        return ",".join(fields)

    def _answer_line(self, key: tuple) -> str:
        fields = [quote_field(str(part)) for part in key]
        for column in self.expansion.columns:
            truth = self.world.truth_value(self.expansion.name, key, column.name)
            fields.append(quote_field(self._oracle.format_value(truth, column)))
        return ",".join(fields)

    # -- public API --------------------------------------------------------------

    def build_spec(self, key: tuple) -> PromptSpec:
        """The structured prompt declaration for one target key."""
        spec = PromptSpec()
        spec.add_task(self._task_line())
        spec.add_rule("Return a single row with no explanation.")
        spec.add_schema(self._columns_line())
        for line in self._value_hint_lines():
            spec.add_values(line)
        if self.context_provider is not None:
            for row_text in self.context_provider(key):
                spec.add_context(f"{CONTEXT_ROW_MARKER} {row_text}")
        for demo_key in self._static_demos:
            spec.add_demonstration(
                f"{EXAMPLE_ENTRY_MARKER}{self._entry_line(demo_key)}",
                f"{ANSWER_MARKER}{self._answer_line(demo_key)}",
            )
        field_count = len(self.expansion.all_column_names())
        spec.add_target(
            f"{TARGET_ENTRY_MARKER}{self._entry_line(key)}",
            "The output should consist of a single row containing "
            f"{field_count} fields.",
        )
        spec.add_cue(ANSWER_MARKER)
        return spec

    def _constant_parts(self) -> tuple[str, str]:
        lines = [
            self._task_line(),
            "Return a single row with no explanation.",
            self._columns_line(),
        ]
        lines.extend(self._value_hint_lines())
        for demo_key in self._static_demos:
            lines.append(f"{EXAMPLE_ENTRY_MARKER}{self._entry_line(demo_key)}")
            lines.append(f"{ANSWER_MARKER}{self._answer_line(demo_key)}")
        field_count = len(self.expansion.all_column_names())
        suffix = (
            "The output should consist of a single row containing "
            f"{field_count} fields.\n{ANSWER_MARKER}"
        )
        return "\n".join(lines), suffix

    def build(self, key: tuple) -> str:
        """The full prompt asking the model to complete the row for ``key``.

        :class:`~repro.llm.declarative.PromptSpec` joins sections (and
        lines within sections) with single newlines, so the rendered
        prompt equals the flat newline join of all lines; with no
        per-key context rows the only key-dependent line is the target
        entry, which is spliced between two cached constant strings —
        byte-identical to ``build_spec(key).render()``.
        """
        if self.context_provider is not None:
            return self.build_spec(key).render()
        if self._prefix is None:
            self._prefix, self._suffix = self._constant_parts()
        return (
            f"{self._prefix}\n{TARGET_ENTRY_MARKER}{self._entry_line(key)}"
            f"\n{self._suffix}"
        )

    def expected_field_count(self) -> int:
        return len(self.expansion.all_column_names())
