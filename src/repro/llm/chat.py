"""The simulated chat model.

:class:`MockChatModel` answers the prompts HQDL and the UDF executor
send.  It reads the *intent* each prompt was rendered from (see
:mod:`repro.llm.intent`): the table and target entry of a row prompt,
the question, keys and shots of a map batch, and so on.  A prompt that
arrives as bare text is read by :func:`~repro.llm.intent.intent_of`, the
text-only path, which the tier-1 property tests prove returns the very
intent the builder attached — so reading the intent *is* reading the
real prompt text, only without parsing it again.  The text itself still
decides everything hashed or counted: token usage and every format-error
draw.  The model consults the :class:`~repro.llm.oracle.KnowledgeOracle`
and produces *real completion text* — including realistic failure modes:

- **knowledge errors**: hallucinated values at the profile's calibrated
  rates (handled inside the oracle);
- **format errors**: wrong field counts, empty fields, chatty preambles —
  frequent at zero shot and rare with demonstrations (Section 5.3);
- **batch misalignment**: occasionally skipped or swapped answers when
  several keys share one call (Section 5.4).

The protocol markers live in :mod:`repro.llm.intent` and are re-exported
here, next to the model that answers them.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import LLMError
from repro.llm.client import ChatResponse
from repro.llm.intent import (  # noqa: F401 - the protocol, re-exported
    ANSWER_MARKER,
    COLUMNS_MARKER,
    CONTEXT_ROW_MARKER,
    EQUIVALENCE_MARKER,
    EXAMPLE_ENTRY_MARKER,
    MAP_EXAMPLE_MARKER,
    MAP_KEYS_MARKER,
    QUESTION_MARKER,
    ROW_TASK_MARKER,
    TARGET_ENTRY_MARKER,
    VALUES_HINT_MARKER,
    EquivalenceIntent,
    MapIntent,
    QaIntent,
    RowIntent,
    intent_of,
    parse_quoted_row,
    quote_field,
)
from repro.llm.oracle import KnowledgeOracle, stable_uniform
from repro.llm.profiles import ModelProfile
from repro.llm.tokenizer import count_tokens
from repro.llm.usage import UsageMeter

_QUOTED_RE = re.compile(r"'((?:[^']|'')+)'")


class MockChatModel:
    """A deterministic simulated LLM bound to one world's oracle."""

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
        """Complete one prompt: read its intent, answer by protocol.

        The intent rides on a :class:`~repro.llm.intent.Prompt`; bare
        text is read by :func:`~repro.llm.intent.intent_of`, which yields
        the same intent for the same text.
        """
        intent = getattr(prompt, "intent", None)
        if intent is None:
            intent = intent_of(prompt)
        if isinstance(intent, MapIntent):
            text = self._complete_map(intent, prompt)
        elif isinstance(intent, RowIntent):
            text = self._complete_row(intent, prompt)
        elif isinstance(intent, QaIntent):
            text = self._complete_qa(intent)
        else:
            text = self._complete_equivalence(intent)
        usage = self.meter.record(count_tokens(prompt), count_tokens(text), label)
        return ChatResponse(text, usage)

    # -- HQDL row completion ---------------------------------------------------

    def _complete_row(self, intent: RowIntent, prompt: str) -> str:
        expansion = self.oracle.world.expansion(intent.table)
        shots = intent.shots
        key = intent.entry[: len(expansion.key_columns)]
        values = [str(part) for part in key]
        if key in self.oracle.world.truth[expansion.name]:
            for column in expansion.columns:
                values.append(
                    self.oracle.generate_value(
                        expansion.name,
                        key,
                        column.name,
                        self.profile,
                        shots,
                        # grounding context (related database rows) makes
                        # recall easier — the calibrated context boost
                        # models that (Section 4.3, opp. #1)
                        with_context=intent.context,
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

    def _complete_map(self, intent: MapIntent, prompt: str) -> str:
        expansion, column = self.oracle.resolve_attribute(intent.question)
        shots = intent.shots
        keys = intent.keys
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

    # -- question-equivalence check (the mapping store's query rewriting) --------

    def _complete_equivalence(self, intent: EquivalenceIntent) -> str:
        """Judge whether two questions ask for the same generated attribute.

        This is the model's genuine "understanding" at work: both
        phrasings are resolved through the same keyword-cue machinery the
        map protocol uses, and equivalence means they name the same
        (expansion, column).  Unresolvable phrasings are judged 'no'.
        """
        try:
            left = self.oracle.resolve_attribute(intent.first)
            right = self.oracle.resolve_attribute(intent.second)
        except LLMError:
            return "no"
        same = (left[0].name, left[1].name) == (right[0].name, right[1].name)
        return "yes" if same else "no"

    # -- UDF scalar QA -----------------------------------------------------------

    def _complete_qa(self, intent: QaIntent) -> str:
        question = intent.question
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
        return self.oracle.generate_value(
            expansion.name, key, column.name, self.profile, intent.shots,
            single_cell=True,
        )
