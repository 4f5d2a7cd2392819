"""Tests for ingredient-call validation and the map-answer decoder."""

import random
import re

import pytest

from repro.errors import IngredientError
from repro.sqlparser import ast
from repro.udf.ingredients import parse_ingredient_call, parse_map_answers


def ing(name, args, options=None):
    return ast.Ingredient(name=name, args=args, options=options or {})


class TestLLMMap:
    def test_basic(self):
        call = parse_ingredient_call(ing("LLMMap", ["q?", "t::c"]))
        assert call.kind == "LLMMap"
        assert call.question == "q?"
        assert call.source_table == "t"
        assert call.key_columns == ("c",)

    def test_composite_key(self):
        call = parse_ingredient_call(
            ing("LLMMap", ["q", "hero::name", "hero::full_name"])
        )
        assert call.key_columns == ("name", "full_name")

    def test_mixed_tables_rejected(self):
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMMap", ["q", "a::x", "b::y"]))

    def test_missing_key_rejected(self):
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMMap", ["q"]))

    def test_bad_key_reference(self):
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMMap", ["q", "no-separator"]))
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMMap", ["q", "::col"]))

    def test_options_preserved(self):
        call = parse_ingredient_call(
            ing("LLMMap", ["q", "t::c"], {"options": "publishers"})
        )
        assert dict(call.options) == {"options": "publishers"}


class TestLLMQA:
    def test_basic(self):
        call = parse_ingredient_call(ing("LLMQA", ["who?"]))
        assert call.kind == "LLMQA"
        assert call.source_table == ""

    def test_extra_args_rejected(self):
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMQA", ["q", "t::c"]))


class TestValidation:
    def test_unknown_name(self):
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMDream", ["q"]))

    def test_no_args(self):
        with pytest.raises(IngredientError):
            parse_ingredient_call(ing("LLMMap", []))

    def test_signature_identity(self):
        a = parse_ingredient_call(ing("LLMMap", ["q", "t::c"]))
        b = parse_ingredient_call(ing("LLMMap", ["q", "t::c"], {"options": "x"}))
        assert a.signature() == b.signature()  # options don't change identity


# -- parse_map_answers vs the regex-only decoder -------------------------------

_REFERENCE_LINE_RE = re.compile(r"^\s*(\d+)\s*[.):]\s*(.*?)\s*$")


def reference_map_answers(completion, expected):
    """The decoder before its partition fast path: one regex per line."""
    answers = [None] * expected
    for line in completion.splitlines():
        match = _REFERENCE_LINE_RE.match(line)
        if match is None:
            continue
        index = int(match.group(1)) - 1
        if 0 <= index < expected:
            value = match.group(2).strip()
            answers[index] = value if value else None
    return answers


#: every separator ``str.splitlines`` breaks on
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]

#: the shapes a line of a map completion can take; ``{i}`` is the index
LINE_SHAPES = [
    "{i}. {v}",       # what the model writes
    "  {i}. {v}",     # leading spaces
    "0{i}. {v}",      # zero-padded index
    "{i}) {v}",       # the other separators
    "{i}: {v}",
    "{i} . {v}",
    "{i}.{v}",        # no space after the dot
    "{i}.\t{v}",
    "{i}.  {v}  ",    # extra space on both sides
    "{i}. ",          # empty value
    "{i}.   \t ",     # whitespace-only value
    "{i}",            # no separator at all
    "{v}",            # chatter
    "{i}.{i}. {v}",   # a dotted index
]

VALUES = [
    "DC Comics", "Dr. Who", "a. b. c", "www.school.edu", "", " ", "\t",
    "1. nested", "Marvel ", "x\u3000", "N/A", "émigré", "١٢", "?",
]

#: digits outside ASCII: the regex and ``int`` read the decimal ones;
#: superscripts pass ``str.isdigit`` but neither the regex nor ``int``
DIGIT_SETS = [
    "0123456789",
    "".join(chr(0x0660 + d) for d in range(10)),  # Arabic-Indic
    "".join(chr(0xFF10 + d) for d in range(10)),  # fullwidth
    "\u2070\u00b9\u00b2\u00b3" + "".join(chr(0x2074 + d) for d in range(6)),
]


def _index(rng, expected):
    """An index: in range, zero, past the end, or in foreign digits."""
    number = rng.choice(
        [rng.randint(1, max(expected, 1)), 0, expected + 1, rng.randint(10, 99)]
    )
    digits = rng.choice(DIGIT_SETS) if rng.random() < 0.15 else DIGIT_SETS[0]
    return "".join(digits[int(d)] for d in str(number))


def random_completion(rng, expected):
    lines = [
        rng.choice(LINE_SHAPES).format(
            i=_index(rng, expected), v=rng.choice(VALUES)
        )
        for _ in range(rng.randint(0, expected + 3))
    ]
    text = ""
    for line in lines:
        text += line + rng.choice(LINE_BREAKS)
    return text if rng.random() < 0.5 else text.rstrip("\n")


class TestParseMapAnswers:
    """The partition fast path decodes exactly what the regex decoded."""

    @pytest.mark.parametrize(
        "completion, expected, answers",
        [
            ("1. a\n2. b", 2, ["a", "b"]),
            ("  1. a\n02. b", 2, ["a", "b"]),
            ("1) a\n2: b\n3 . c", 3, ["a", "b", "c"]),
            ("1.x\n2.\ty", 2, ["x", "y"]),
            ("١. x\n٢. y", 2, ["x", "y"]),
            ("1. Dr. Who", 1, ["Dr. Who"]),
            ("1. \n2.   \t", 2, [None, None]),
            ("0. a\n3. c\n1. a\n1. b", 2, ["b", None]),
            ("1.5. x", 1, ["5. x"]),
            ("². x", 1, [None]),
        ],
    )
    def test_named_cases(self, completion, expected, answers):
        assert parse_map_answers(completion, expected) == answers
        assert reference_map_answers(completion, expected) == answers

    @pytest.mark.parametrize("separator", LINE_BREAKS)
    def test_every_line_break(self, separator):
        completion = separator.join(["1. a", " 2) b", "3. Dr. c", "4."])
        assert parse_map_answers(completion, 4) == reference_map_answers(
            completion, 4
        ) == ["a", "b", "Dr. c", None]

    def test_differential_fuzz(self):
        rng = random.Random(20250)
        fast_lines = 0
        for _ in range(3000):
            expected = rng.randint(0, 12)
            completion = random_completion(rng, expected)
            assert parse_map_answers(completion, expected) == (
                reference_map_answers(completion, expected)
            ), completion
            fast_lines += sum(
                line.partition(". ")[0].isdigit()
                for line in completion.splitlines()
            )
        assert fast_lines > 1000  # the fast path was really exercised
