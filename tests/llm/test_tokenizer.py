"""Tests for the approximate tokenizer."""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hqdl import HQDL
from repro.llm.tokenizer import (
    LINE_MEMO_SIZE,
    SUBWORD_LEN,
    _line_tokens,
    count_tokens,
    tokenize_text,
)
from repro.swan.build import build_curated_database
from repro.udf import HybridQueryExecutor
from tests.conftest import make_model


class TestTokenize:
    def test_empty(self):
        assert tokenize_text("") == []
        assert count_tokens("") == 0

    def test_simple_words(self):
        assert tokenize_text("the cat") == ["the", "cat"]

    def test_long_words_split(self):
        tokens = tokenize_text("internationalization")
        assert all(len(t) <= SUBWORD_LEN for t in tokens)
        assert "".join(tokens) == "internationalization"

    def test_digits_grouped(self):
        assert tokenize_text("1234567") == ["123", "456", "7"]

    def test_punctuation_separate(self):
        assert tokenize_text("a,b") == ["a", ",", "b"]

    def test_mixed_prompt(self):
        text = "The columns are: `superhero_name`,`full_name`"
        assert count_tokens(text) > 8


class TestDeterminismAndMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert tokenize_text(text) == tokenize_text(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=100), st.text(max_size=100))
    def test_concatenation_superadditive_with_separator(self, left, right):
        # Joining with whitespace can never produce fewer tokens than the
        # parts alone (whitespace never merges pieces).
        combined = count_tokens(left + " " + right)
        assert combined >= count_tokens(left)
        assert combined >= count_tokens(right)
        assert combined == count_tokens(left) + count_tokens(right)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
    def test_token_count_bounded_by_length(self, text):
        assert count_tokens(text) <= max(1, len(text))


#: every separator ``str.splitlines`` knows; the counter splits on "\n"
#: only, so the others must behave as the plain whitespace they are
SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]


def _planned_prompts(swan):
    """Every prompt both pipelines plan for all four worlds at scale 1."""
    prompts = []
    for name in swan.database_names():
        world = swan.world(name)
        model = make_model(world)
        prompts.extend(p for p, _ in HQDL(world, model, shots=2).plan_calls())
        db = build_curated_database(world)
        try:
            executor = HybridQueryExecutor(db, model, world, shots=2)
            for question in swan.questions_for(name):
                prompts.extend(p for p, _ in executor.plan_calls(question.blend_sql))
        finally:
            db.close()
    return prompts


class TestCountIsAdditiveOverLines:
    """``count_tokens`` sums a per-line memo; ``tokenize_text`` is the reference."""

    def test_seeded_fuzz_over_separators(self):
        rng = random.Random(12)
        alphabet = (
            list("abcXYZ") + list("0123456789") + list(".,|'`?()-_ \t")
            + list("éñßЖ中٣") + SEPARATORS * 2
        )
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(60)))
            assert count_tokens(text) == len(tokenize_text(text)), repr(text)

    def test_line_break_edge_cases(self):
        for text in [
            "\n", "\n\n\n", "a\n", "\na", "a\n\nb", "tail\n",
            "abcdefgh\nijklmnop",  # a letter run straddling the break
            "1234\n5678",  # a digit run straddling the break
            "abc" + "\r\n" + "def", "ab\u2028cd\x85ef\x1cgh",
        ]:
            assert count_tokens(text) == len(tokenize_text(text)), repr(text)

    def test_matches_reference_on_every_planned_prompt(self, swan):
        prompts = _planned_prompts(swan)
        assert len(prompts) > 1000
        for prompt in prompts:
            assert count_tokens(prompt) == len(tokenize_text(prompt))

    def test_memo_is_bounded(self):
        for index in range(100_000):
            count_tokens(f"distinct line {index}")
        assert _line_tokens.cache_info().currsize <= LINE_MEMO_SIZE

    def test_threads_agree_with_serial_total(self, superhero_world):
        pipeline = HQDL(superhero_world, make_model(superhero_world), shots=2)
        prompts = [p for p, _ in pipeline.plan_calls()]
        serial = sum(len(tokenize_text(p)) for p in prompts)
        totals = []
        _line_tokens.cache_clear()  # start cold so the threads race to fill it

        def count_all():
            totals.append(sum(count_tokens(p) for p in prompts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=count_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert totals == [serial] * 8
