"""The simulated chat model.

:class:`MockChatModel` receives *real prompt text* (built by HQDL or the
UDF executor), parses it the way an instruction-following model would
"read" it, consults the :class:`~repro.llm.oracle.KnowledgeOracle`, and
produces *real completion text* — including realistic failure modes:

- **knowledge errors**: hallucinated values at the profile's calibrated
  rates (handled inside the oracle);
- **format errors**: wrong field counts, empty fields, chatty preambles —
  frequent at zero shot and rare with demonstrations (Section 5.3);
- **batch misalignment**: occasionally skipped or swapped answers when
  several keys share one call (Section 5.4).

Prompt structure is defined by the marker constants below; the prompt
builders in :mod:`repro.core.prompts` and :mod:`repro.udf.executor`
import them, so model and builders cannot drift apart.
"""

from __future__ import annotations

import csv
import io
import re
from typing import Optional

from repro.errors import DeadlineExceededError, LLMError
from repro.llm.client import ChatResponse
from repro.llm.oracle import KnowledgeOracle, stable_uniform
from repro.llm.profiles import ModelProfile
from repro.llm.tokenizer import count_tokens
from repro.llm.usage import UsageMeter

# -- prompt protocol markers (shared with the prompt builders) ---------------

ROW_TASK_MARKER = "fill in the missing values"
EQUIVALENCE_MARKER = "Do these two questions ask for the same attribute?"
CONTEXT_ROW_MARKER = "Context row:"
COLUMNS_MARKER = "The columns are:"
EXAMPLE_ENTRY_MARKER = "Example Entry:"
TARGET_ENTRY_MARKER = "Target Entry:"
ANSWER_MARKER = "Answer:"
MAP_KEYS_MARKER = "Keys:"
QUESTION_MARKER = "Question:"
MAP_EXAMPLE_MARKER = "Example:"
VALUES_HINT_MARKER = "The possible values for"

_TABLE_RE = re.compile(r"the `(\w+)` table")
_BACKTICK_RE = re.compile(r"`([^`]+)`")
_KEY_LINE_RE = re.compile(r"^\s*(\d+)\.\s+(.*)$")
_QUOTED_RE = re.compile(r"'((?:[^']|'')+)'")


def quote_field(value: str) -> str:
    """Render one field the way the row protocol expects: 'value'."""
    return "'" + value.replace("'", "''") + "'"


def parse_quoted_row(line: str) -> list[str]:
    """Parse a `'a','b',?,?` style row into fields ('?' stays literal)."""
    reader = csv.reader(io.StringIO(line), quotechar="'", skipinitialspace=True)
    rows = list(reader)
    if not rows:
        return []
    return [field.strip() for field in rows[0]]


class MockChatModel:
    """A deterministic simulated LLM bound to one world's oracle."""

    #: see complete_many: batching beats threads for a zero-latency
    #: CPU-bound client
    prefers_batch_dispatch = True

    def __init__(
        self,
        oracle: KnowledgeOracle,
        profile: ModelProfile,
        *,
        meter: Optional[UsageMeter] = None,
    ) -> None:
        self.oracle = oracle
        self.profile = profile
        self.meter = meter or UsageMeter()
        self.model_name = profile.name

    # -- ChatClient ----------------------------------------------------------

    def complete(self, prompt: str, *, label: str = "") -> ChatResponse:
        """Complete one prompt, dispatching on its structure."""
        if TARGET_ENTRY_MARKER in prompt:
            text = self._complete_row(prompt)
        elif EQUIVALENCE_MARKER in prompt:
            text = self._complete_equivalence(prompt)
        elif MAP_KEYS_MARKER in prompt and QUESTION_MARKER in prompt:
            text = self._complete_map(prompt)
        elif QUESTION_MARKER in prompt:
            text = self._complete_qa(prompt)
        else:
            raise LLMError(
                f"prompt does not match any known protocol: {prompt[:120]!r}"
            )
        usage = self.meter.record(count_tokens(prompt), count_tokens(text), label)
        return ChatResponse(text, usage)

    def complete_many(self, prompts, labels, *, deadline=None) -> list[ChatResponse]:
        """Complete a prompt list inline, in order.

        The model is pure CPU with zero latency, so fanning its calls
        over dispatcher threads only buys GIL contention and per-future
        overhead; batch dispatch (advertised via
        ``prefers_batch_dispatch``) completes the list in
        one loop with identical results and accounting.  Latency-
        injecting wrappers hide the flag, so stacks where thread overlap
        matters keep the per-call path.  An already-expired ``deadline``
        skips the whole batch with a typed error before any completion.
        """
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError(
                "deadline expired before batch completion"
            )
        return [
            self.complete(prompt, label=label)
            for prompt, label in zip(prompts, labels)
        ]

    # -- HQDL row completion ---------------------------------------------------

    def _complete_row(self, prompt: str) -> str:
        table_match = _TABLE_RE.search(prompt)
        if table_match is None:
            raise LLMError("row prompt does not name its expansion table")
        expansion = self.oracle.world.expansion(table_match.group(1))
        shots = prompt.count(EXAMPLE_ENTRY_MARKER)
        target_line = self._line_after_marker(prompt, TARGET_ENTRY_MARKER)
        fields = parse_quoted_row(target_line)
        key_width = len(expansion.key_columns)
        key = tuple(fields[:key_width])
        values = [str(part) for part in key]
        # grounding context (related database rows) makes recall easier —
        # the calibrated context boost models that (Section 4.3, opp. #1)
        has_context = CONTEXT_ROW_MARKER in prompt
        if key in self.oracle.world.truth[expansion.name]:
            for column in expansion.columns:
                values.append(
                    self.oracle.generate_value(
                        expansion.name,
                        key,
                        column.name,
                        self.profile,
                        shots,
                        with_context=has_context,
                    )
                )
        else:
            # An entity the "world" has no record of: the model guesses.
            values.extend("Unknown" for _ in expansion.columns)
        values = self._maybe_mangle_row(prompt, values, shots)
        row = ",".join(quote_field(v) for v in values)
        preamble = self._maybe_preamble(prompt, shots)
        return preamble + row

    def _maybe_mangle_row(
        self, prompt: str, values: list[str], shots: int
    ) -> list[str]:
        """Inject a field-level format error at the calibrated rate."""
        rate = self.profile.format_error_rate(shots)
        draw = stable_uniform(self.model_name, "row-format", prompt)
        if draw >= rate:
            return values
        variant = int(stable_uniform(self.model_name, "row-variant", prompt) * 3)
        mangled = list(values)
        if variant == 0 and len(mangled) > 1:
            mangled.pop()  # too few fields
        elif variant == 1:
            mangled.append("N/A")  # too many fields
        else:
            index = int(
                stable_uniform(self.model_name, "row-empty", prompt) * len(mangled)
            )
            mangled[min(index, len(mangled) - 1)] = ""  # empty field
        return mangled

    def _maybe_preamble(self, prompt: str, shots: int) -> str:
        """Zero-shot completions sometimes ignore the 'no explanation' rule."""
        if shots > 0:
            return ""
        draw = stable_uniform(self.model_name, "preamble", prompt)
        if draw < self.profile.format_error_rate(0) / 2:
            return "Here is the completed row:\n"
        return ""

    # -- UDF map (batched per-key answers) --------------------------------------

    def _complete_map(self, prompt: str) -> str:
        question, keys = self._parse_map_prompt(prompt)
        expansion, column = self.oracle.resolve_attribute(question)
        shots = prompt.count(MAP_EXAMPLE_MARKER)
        answers: list[str] = []
        if keys:
            generate = self.oracle.map_value_generator(
                expansion.name, column.name, self.profile, shots, len(keys)
            )
            for key in keys:
                padded = self._pad_key(expansion, key)
                answers.append(
                    generate(padded) if padded is not None else "Unknown"
                )
        answers = self._maybe_misalign(prompt, answers, shots)
        return "\n".join(f"{i}. {answer}" for i, answer in enumerate(answers, 1))

    def _parse_map_prompt(
        self, prompt: str
    ) -> tuple[str, list[tuple[str, ...]]]:
        """Question line and keys block in a single line scan.

        The question is the rest of the first line containing the
        question marker (as :meth:`_line_after_marker` finds it); the
        keys block opens at the first bare ``Keys:`` line and closes at
        the first non-key line after it.
        """
        question: Optional[str] = None
        keys: list[tuple[str, ...]] = []
        seen_marker = False
        keys_done = False
        for line in prompt.splitlines():
            if question is None and QUESTION_MARKER in line:
                question = line.split(QUESTION_MARKER, 1)[1].strip()
            if keys_done:
                if question is not None:
                    break
                continue
            if not seen_marker:
                if line.strip() == MAP_KEYS_MARKER:
                    seen_marker = True
                continue
            match = _KEY_LINE_RE.match(line)
            if match is None:
                if keys:
                    keys_done = True
                    if question is not None:
                        break
                continue
            parts = [p.strip() for p in match.group(2).split("|")]
            keys.append(tuple(_strip_quotes(p) for p in parts))
        if question is None:
            raise LLMError(f"prompt is missing the {QUESTION_MARKER!r} line")
        return question, keys

    def _pad_key(
        self, expansion, key: tuple[str, ...]
    ) -> Optional[tuple[str, ...]]:
        """Match a (possibly partial) prompt key against the truth keys."""
        truth = self.oracle.world.truth[expansion.name]
        if key in truth:
            return key
        width = len(expansion.key_columns)
        if len(key) < width:
            # unique completion by prefix
            candidates = [k for k in truth if k[: len(key)] == key]
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _maybe_misalign(
        self, prompt: str, answers: list[str], shots: int
    ) -> list[str]:
        """Batch answers occasionally come back skipped or swapped."""
        if len(answers) < 2:
            return answers
        rate = self.profile.format_error_rate(shots)
        draw = stable_uniform(self.model_name, "map-format", prompt)
        if draw >= rate:
            return answers
        mangled = list(answers)
        if stable_uniform(self.model_name, "map-variant", prompt) < 0.5:
            index = int(
                stable_uniform(self.model_name, "map-skip", prompt) * len(mangled)
            )
            mangled[min(index, len(mangled) - 1)] = ""  # skipped an item
        else:
            index = int(
                stable_uniform(self.model_name, "map-swap", prompt)
                * (len(mangled) - 1)
            )
            mangled[index], mangled[index + 1] = mangled[index + 1], mangled[index]
        return mangled

    # -- question-equivalence check (semantic cache rewriting) -------------------

    def _complete_equivalence(self, prompt: str) -> str:
        """Judge whether two questions ask for the same generated attribute.

        This is the model's genuine "understanding" at work: both
        phrasings are resolved through the same keyword-cue machinery the
        map protocol uses, and equivalence means they name the same
        (expansion, column).  Unresolvable phrasings are judged 'no'.
        """
        first = self._line_after_marker(prompt, "Q1:")
        second = self._line_after_marker(prompt, "Q2:")
        try:
            left = self.oracle.resolve_attribute(_strip_quotes(first))
            right = self.oracle.resolve_attribute(_strip_quotes(second))
        except LLMError:
            return "no"
        same = (left[0].name, left[1].name) == (right[0].name, right[1].name)
        return "yes" if same else "no"

    # -- UDF scalar QA -----------------------------------------------------------

    def _complete_qa(self, prompt: str) -> str:
        question = self._line_after_marker(prompt, QUESTION_MARKER)
        try:
            expansion, column = self.oracle.resolve_attribute(question)
        except LLMError:
            return "Unknown"
        entity_match = _QUOTED_RE.search(question)
        if entity_match is None:
            return "Unknown"
        entity = entity_match.group(1).replace("''", "'")
        key = self.oracle.find_key(expansion, entity)
        if key is None:
            return "Unknown"
        shots = prompt.count(MAP_EXAMPLE_MARKER)
        return self.oracle.generate_value(
            expansion.name, key, column.name, self.profile, shots, single_cell=True
        )

    # -- shared helpers ------------------------------------------------------------

    @staticmethod
    def _line_after_marker(prompt: str, marker: str) -> str:
        for line in prompt.splitlines():
            if marker in line:
                return line.split(marker, 1)[1].strip()
        raise LLMError(f"prompt is missing the {marker!r} line")


def _strip_quotes(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1].replace(text[0] * 2, text[0])
    return text
