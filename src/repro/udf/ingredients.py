"""Ingredient semantics: interpreting ``{{LLMMap/LLMQA/LLMJoin}}`` calls.

An :class:`IngredientCall` is the validated, executor-facing view of an
AST :class:`~repro.sqlparser.ast.Ingredient`: the question, the source
table, and the key columns parsed out of ``table::column`` references.
:func:`parse_map_answers` is the other direction: the one decoder of a
map completion's ``index. answer`` lines, shared by the executor, the
call planner and the serving layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.errors import IngredientError
from repro.sqlparser import ast

KNOWN_INGREDIENTS = ("LLMMap", "LLMQA", "LLMJoin")

_ANSWER_LINE_RE = re.compile(r"^\s*(\d+)\s*[.):]\s*(.*?)\s*$")


@dataclass(frozen=True)
class IngredientCall:
    """A validated ingredient invocation."""

    kind: str  # 'LLMMap' | 'LLMQA' | 'LLMJoin'
    question: str
    source_table: str = ""
    key_columns: tuple[str, ...] = ()
    options: tuple[tuple[str, object], ...] = ()

    def signature(self) -> tuple:
        """Identity for caching and for sharing one generation within a query."""
        return (self.kind, self.question, self.source_table, self.key_columns)


def _split_column_ref(ref: str) -> tuple[str, str]:
    """Parse a ``table::column`` key reference."""
    if "::" not in ref:
        raise IngredientError(
            f"key reference must look like 'table::column', got {ref!r}"
        )
    table, _, column = ref.partition("::")
    table = table.strip()
    column = column.strip()
    if not table or not column:
        raise IngredientError(f"malformed key reference {ref!r}")
    return table, column


def _parse(name: str, args: tuple, options: tuple) -> IngredientCall:
    if name not in KNOWN_INGREDIENTS:
        raise IngredientError(
            f"unknown ingredient {name!r}; expected one of "
            f"{', '.join(KNOWN_INGREDIENTS)}"
        )
    if not args:
        raise IngredientError(f"{name} requires a question argument")
    question = str(args[0])
    if name == "LLMQA":
        if len(args) > 1:
            raise IngredientError("LLMQA takes only the question argument")
        return IngredientCall(kind="LLMQA", question=question, options=options)
    if len(args) < 2:
        raise IngredientError(
            f"{name} requires at least one 'table::column' key reference"
        )
    table = ""
    key_columns: list[str] = []
    for ref in args[1:]:
        ref_table, column = _split_column_ref(str(ref))
        if table and ref_table != table:
            raise IngredientError(
                f"{name} key references mix tables "
                f"{table!r} and {ref_table!r}"
            )
        table = ref_table
        key_columns.append(column)
    return IngredientCall(
        kind=name,
        question=question,
        source_table=table,
        key_columns=tuple(key_columns),
        options=options,
    )


#: IngredientCall is frozen (immutable), so memoizing parses by value is
#: safe; AST nodes themselves are mutable and must not be the cache key.
_parse_cached = lru_cache(maxsize=512)(_parse)


def parse_ingredient_call(node: ast.Ingredient) -> IngredientCall:
    """Validate an AST ingredient into an :class:`IngredientCall`.

    Parses are memoized by value: a scaled run re-parses the same
    handful of ingredient shapes thousands of times, and the validation
    (string splitting per key reference) is pure.
    """
    name = node.name
    args = tuple(node.args)
    options = tuple(sorted(node.options.items()))
    try:
        return _parse_cached(name, args, options)
    except TypeError:
        return _parse(name, args, options)


def parse_map_answers(completion: str, expected: int) -> list[Optional[str]]:
    """Parse `index. answer` lines, tolerating gaps and noise.

    A line that opens with ASCII digits and ``". "`` — every line the
    model writes — is split with ``str.partition``: ``\\d+`` cannot take
    a ``.``, so the first ``". "`` ends the index, and ``strip`` drops
    the same whitespace the regex would.  Every other line (leading
    spaces, ``1)``, ``1:``, ``1.x``, non-ASCII digits) goes through
    ``_ANSWER_LINE_RE``.
    """
    answers: list[Optional[str]] = [None] * expected
    for line in completion.splitlines():
        head, sep, value = line.partition(". ")
        if sep and head.isascii() and head.isdigit():
            index = int(head) - 1
        else:
            match = _ANSWER_LINE_RE.match(line)
            if match is None:
                continue
            index = int(match.group(1)) - 1
            value = match.group(2)
        if 0 <= index < expected:
            value = value.strip()
            answers[index] = value if value else None
    return answers
