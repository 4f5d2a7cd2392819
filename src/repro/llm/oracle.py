"""The knowledge oracle behind the simulated models.

A :class:`KnowledgeOracle` owns the ground truth of one SWAN world and
decides, per generated cell, whether a given model "knows" the true value
— deterministically, via a hash of the cell identity compared against the
model profile's calibrated accuracy.  Two useful properties fall out of
hashing the *cell* rather than the call:

- monotonicity in shots: more demonstrations never turn a known cell into
  an unknown one (accuracy only rises, the hash draw is fixed);
- model consistency: the stronger model's knowledge is a superset of the
  weaker model's wherever its accuracy is higher, because both compare the
  same draw against their own thresholds.

When the model does not know a value, the oracle fabricates a *plausible*
hallucination: another entry of the value list for selection columns, a
nearby number for numeric columns, a mutated string or another entity's
value for free-form columns.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Optional

from repro.errors import CurationError, LLMError
from repro.llm.profiles import ModelProfile
from repro.stable import stable_uniform  # noqa: F401 - historical home, re-exported
from repro.swan.base import (
    KIND_MULTI,
    KIND_NUMERIC,
    KIND_SELECTION,
    ExpansionColumn,
    ExpansionTable,
    World,
)


#: one column's confusion candidates: the non-None truth values in truth
#: order, their positions by value text, and each entry key's position
_Confusion = tuple[list, dict[str, list[int]], dict[tuple, int]]


def _uniform_from_payload(payload: str) -> float:
    """:func:`stable_uniform` over an already-joined payload string.

    The oracle hot path draws several uniforms per cell whose parts
    share a long common tail; joining that tail once and formatting only
    the leading discriminator keeps the draw byte-identical while
    skipping the per-draw ``str``/``join`` work.
    """
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _choice_from_payload(options: list, payload: str):
    """:func:`stable_choice` over an already-joined payload string."""
    if not options:
        raise LLMError("stable_choice requires at least one option")
    index = int(_uniform_from_payload("choice\x1f" + payload) * len(options))
    return options[min(index, len(options) - 1)]


def stable_choice(options: list, *parts: object):
    """Deterministically pick one option based on the parts."""
    if not options:
        raise LLMError("stable_choice requires at least one option")
    index = int(stable_uniform("choice", *parts) * len(options))
    return options[min(index, len(options) - 1)]


class KnowledgeOracle:
    """Ground truth plus calibrated noise for one world."""

    def __init__(self, world: World, *, salt: str = "swan-v1") -> None:
        self.world = world
        self.salt = salt
        # calibrated accuracy per (profile name, column, shots, ...) —
        # constant across the thousands of cells of one scaled column
        self._accuracy_cache: dict[tuple, float] = {}
        # multi-kind distractor pools per (value list, truth items)
        self._pool_cache: dict[tuple, list] = {}
        # free-form confusion candidates per (expansion, column): each
        # non-None truth value in truth order, and the candidates'
        # positions by value text and by entry key
        self._confusion_cache: dict[tuple[str, str], _Confusion] = {}
        # question -> resolved (expansion, column), or None for a miss;
        # a batched run re-resolves the same question per map call
        self._attr_cache: dict[str, Optional[tuple]] = {}
        # column metadata index: (expansion_name, column_name) -> spec
        self._columns: dict[tuple[str, str], ExpansionColumn] = {}
        for expansion in world.expansions:
            for column in expansion.columns:
                self._columns[(expansion.name, column.name)] = column

    # -- core generation -----------------------------------------------------

    def column_spec(self, expansion_name: str, column: str) -> ExpansionColumn:
        try:
            return self._columns[(expansion_name, column)]
        except KeyError as exc:
            raise LLMError(
                f"unknown generated column {expansion_name}.{column}"
            ) from exc

    def knows(
        self,
        expansion_name: str,
        key: tuple,
        column: str,
        accuracy: float,
    ) -> bool:
        """Whether a model with the given accuracy knows this cell."""
        draw = stable_uniform(self.salt, "know", self.world.name, expansion_name, key, column)
        return draw < accuracy

    def _base_accuracy(
        self,
        spec: ExpansionColumn,
        profile: ModelProfile,
        shots: int,
        single_cell: bool,
        batch_size: int,
    ) -> float:
        """The profile's calibrated accuracy for one column, memoized.

        A pure function of ``(profile, column, shots, single_cell,
        batch_size)`` — constant across the thousands of cells a scaled
        column generates (keyed on ``profile.name``; profiles are
        registry singletons).
        """
        acc_key = (profile.name, spec.name, shots, single_cell, batch_size)
        accuracy = self._accuracy_cache.get(acc_key)
        if accuracy is None:
            accuracy = profile.knowledge_accuracy(
                self.world.name,
                spec.name,
                spec.kind,
                shots,
                single_cell=single_cell,
                batch_size=batch_size,
            )
            self._accuracy_cache[acc_key] = accuracy
        return accuracy

    def generate_value(
        self,
        expansion_name: str,
        key: tuple,
        column: str,
        profile: ModelProfile,
        shots: int,
        *,
        single_cell: bool = False,
        batch_size: int = 1,
        with_context: bool = False,
    ) -> str:
        """The model's answer for one cell, formatted as completion text.

        Every hash draw reuses one pre-joined payload tail instead of
        re-stringifying the cell identity per draw.
        """
        spec = self.column_spec(expansion_name, column)
        accuracy = self._base_accuracy(spec, profile, shots, single_cell, batch_size)
        # Famous entities are better represented in pre-training data;
        # the popularity multiplier raises (or lowers) the cell's odds
        # while keeping the profile's hard ceiling.  A model with perfect
        # knowledge (accuracy 1.0, e.g. the 'perfect' profile) has nothing
        # left to forget, so neither popularity nor context applies.
        if accuracy < 1.0:
            accuracy *= self.world.key_popularity(expansion_name, key)
            if with_context:
                accuracy *= profile.context_boost
            accuracy = min(profile.max_accuracy, accuracy)
        truth = self.world.truth_value(expansion_name, key, column)
        tail = f"{self.world.name}\x1f{expansion_name}\x1f{key}\x1f{column}"
        if _uniform_from_payload(f"{self.salt}\x1fknow\x1f{tail}") < accuracy:
            return self.format_value(truth, spec)
        return self.format_value(
            self._distractor(expansion_name, key, column, spec, truth, tail),
            spec,
        )

    def map_value_generator(
        self,
        expansion_name: str,
        column: str,
        profile: ModelProfile,
        shots: int,
        batch_size: int,
    ):
        """A per-key closure over :meth:`generate_value`'s batch constants.

        One map call generates the same ``(expansion, column, profile,
        shots, batch_size)`` cell context for every key in the batch;
        hoisting the spec lookup, the calibrated accuracy, and the hash
        payload prefix out of the per-key loop leaves each key one
        popularity lookup, one truth lookup, and one draw — the
        irreducible per-cell work.  Single-cell mode (the map protocol)
        is assumed; answers are byte-identical to per-key
        :meth:`generate_value` calls.
        """
        spec = self.column_spec(expansion_name, column)
        base_accuracy = self._base_accuracy(spec, profile, shots, True, batch_size)
        popularity = self.world.popularity.get(expansion_name, {})
        truths = self.world.truth[expansion_name]
        max_accuracy = profile.max_accuracy
        tail_prefix = f"{self.world.name}\x1f{expansion_name}\x1f"
        know_prefix = f"{self.salt}\x1fknow\x1f"
        format_value = self.format_value
        distractor = self._distractor

        def generate(key: tuple) -> str:
            """One key's answer, drawn against the hoisted batch context."""
            accuracy = base_accuracy
            if accuracy < 1.0:
                accuracy = min(max_accuracy, accuracy * popularity.get(key, 1.0))
            try:
                truth = truths[key][column]
            except KeyError as exc:
                raise CurationError(
                    f"no ground truth for {expansion_name}{key}.{column}"
                ) from exc
            tail = f"{tail_prefix}{key}\x1f{column}"
            if _uniform_from_payload(know_prefix + tail) < accuracy:
                return format_value(truth, spec)
            return format_value(
                distractor(expansion_name, key, column, spec, truth, tail), spec
            )

        return generate

    @staticmethod
    def format_value(value: object, spec: ExpansionColumn) -> str:
        """Render a truth/distractor value the way a model would print it."""
        if spec.kind == KIND_MULTI:
            if isinstance(value, (list, tuple)):
                return ", ".join(str(v) for v in value)
            return str(value)
        if value is None:
            return ""
        if isinstance(value, float) and value == int(value):
            return str(int(value))
        return str(value)

    # -- hallucination -------------------------------------------------------

    def _distractor(
        self,
        expansion_name: str,
        key: tuple,
        column: str,
        spec: ExpansionColumn,
        truth: object,
        tail: str,
    ) -> object:
        """A plausible wrong value, deterministic per cell.

        ``tail`` is the cell identity pre-joined for hashing (see
        :meth:`generate_value`); every draw prefixes it instead of
        re-stringifying the parts.
        """
        wrong = f"{self.salt}\x1fwrong\x1f{tail}"
        if spec.kind == KIND_SELECTION:
            options = [
                v for v in self.world.value_lists.get(spec.value_list or "", []) if v != truth
            ]
            if options:
                return _choice_from_payload(options, wrong)
            return truth  # degenerate single-value list: nothing else to say
        if spec.kind == KIND_NUMERIC:
            try:
                value = float(truth)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return f"{truth}?"
            draw = _uniform_from_payload("numeric\x1f" + wrong)
            # ±5%..20% relative error, never exactly the truth
            factor = 1.0 + (0.05 + 0.15 * draw) * (1 if draw > 0.5 else -1)
            wrong_value = value * factor
            if isinstance(truth, int) or (
                isinstance(truth, float) and value == int(value)
            ):
                wrong_int = int(round(wrong_value))
                if wrong_int == int(value):
                    wrong_int += 1
                return wrong_int
            return round(wrong_value, 2)
        if spec.kind == KIND_MULTI:
            return self._multi_distractor(spec, truth, wrong)
        seed_parts = (self.salt, "wrong", self.world.name, expansion_name, key, column)
        return self._freeform_distractor(expansion_name, key, column, truth, seed_parts)

    def _multi_distractor(
        self, spec: ExpansionColumn, truth: object, wrong: str
    ) -> tuple:
        """Forget and/or invent one element of a multi-valued truth.

        Replicated entities share their truth item lists, so the pool
        ``[v for v in value_list if v not in items]`` recurs thousands
        of times per scaled column — one dict hit replaces it.
        """
        items = list(truth) if isinstance(truth, (list, tuple)) else [str(truth)]
        pool_key = (spec.value_list, tuple(items))
        pool = self._pool_cache.get(pool_key)
        if pool is None:
            pool = [
                v
                for v in self.world.value_lists.get(spec.value_list or "", [])
                if v not in items
            ]
            self._pool_cache[pool_key] = pool
        draw = _uniform_from_payload("multi\x1f" + wrong)
        mutated = list(items)
        if mutated and draw < 0.6:
            # forget one element
            drop_index = int(
                _uniform_from_payload("multi-drop\x1f" + wrong) * len(mutated)
            )
            mutated.pop(min(drop_index, len(mutated) - 1))
        if pool and draw >= 0.3:
            # invent one element
            mutated.append(_choice_from_payload(pool, "multi-add\x1f" + wrong))
        if tuple(mutated) == tuple(items):
            if pool:
                mutated.append(_choice_from_payload(pool, "multi-fix\x1f" + wrong))
            elif mutated:
                mutated.pop()
        return tuple(mutated)

    def _freeform_distractor(
        self,
        expansion_name: str,
        key: tuple,
        column: str,
        truth: object,
        seed_parts: tuple,
    ) -> object:
        text = str(truth)
        if "www." in text or text.endswith((".edu", ".org", ".com", ".net")):
            return self._mutate_url(text, seed_parts)
        # confusion: answer with another entity's value for the same
        # column, drawn as stable_choice over the candidates whose key and
        # text both differ — located by position, not by building the list
        confusion = self._confusion_cache.get((expansion_name, column))
        if confusion is None:
            confusion = self._confusion(expansion_name, column)
        values, by_text, by_key = confusion
        skip = by_text.get(text, [])
        own = by_key.get(key)
        if own is not None:
            at = bisect_left(skip, own)
            if at == len(skip) or skip[at] != own:
                skip = skip[:at] + [own] + skip[at:]
        count = len(values) - len(skip)
        if count > 0:
            draw = stable_uniform("choice", "confuse", *seed_parts)
            position = min(int(draw * count), count - 1)
            for skipped in skip:
                if skipped > position:
                    break
                position += 1
            return values[position]
        return self._mutate_text(text, seed_parts)

    def _confusion(self, expansion_name: str, column: str) -> _Confusion:
        """Build and memoize one column's confusion candidates."""
        values: list = []
        by_text: dict[str, list[int]] = {}
        by_key: dict[tuple, int] = {}
        for entry_key, entry in self.world.truth[expansion_name].items():
            value = entry[column]
            if value is None:
                continue
            by_text.setdefault(str(value), []).append(len(values))
            by_key[entry_key] = len(values)
            values.append(value)
        confusion = (values, by_text, by_key)
        self._confusion_cache[(expansion_name, column)] = confusion
        return confusion

    @staticmethod
    def _mutate_url(url: str, seed_parts: tuple) -> str:
        suffixes = [".edu", ".org", ".com", ".net", ".us"]
        for suffix in suffixes:
            if url.endswith(suffix):
                replacement = stable_choice(
                    [s for s in suffixes if s != suffix], "url", *seed_parts
                )
                return url[: -len(suffix)] + replacement
        return url + ".org"

    @staticmethod
    def _mutate_text(text: str, seed_parts: tuple) -> str:
        if not text:
            return "unknown"
        draw = stable_uniform("text", *seed_parts)
        if draw < 0.5 and " " in text:
            head, _, _ = text.rpartition(" ")
            return head  # truncated answer
        return text + "s" if not text.endswith("s") else text[:-1]

    # -- question understanding ----------------------------------------------

    def resolve_attribute(
        self, question: str
    ) -> tuple[ExpansionTable, ExpansionColumn]:
        """Resolve an NL question to the generated attribute it asks about.

        This stands in for semantic understanding: each expansion column
        declares keyword cues; the column with the highest cue overlap
        wins.  Raises :class:`LLMError` when nothing matches — the mock
        model is "confused", and callers surface that as a failed query.
        """
        if question in self._attr_cache:
            best = self._attr_cache[question]
            if best is None:
                raise LLMError(
                    f"cannot resolve question to a known attribute: {question!r}"
                )
            return best
        lowered = question.lower()
        best = None
        best_score = 0
        for expansion in self.world.expansions:
            for column in expansion.columns:
                score = sum(
                    len(keyword)
                    for keyword in column.keywords
                    if keyword.lower() in lowered
                )
                if score > best_score:
                    best_score = score
                    best = (expansion, column)
        self._attr_cache[question] = best
        if best is None:
            raise LLMError(
                f"cannot resolve question to a known attribute: {question!r}"
            )
        return best

    def find_key(self, expansion: ExpansionTable, entity: str) -> Optional[tuple]:
        """Find the key tuple whose components mention ``entity``."""
        lowered = entity.lower()
        for key in self.world.truth[expansion.name]:
            if any(lowered == str(part).lower() for part in key):
                return key
        for key in self.world.truth[expansion.name]:
            if any(lowered in str(part).lower() for part in key):
                return key
        return None
