"""Deterministic GPT-style token counting.

The paper's Table 5 reports input/output token totals, which determine
monetary cost.  Real GPT tokenizers are BPE models; offline we use a
faithful approximation: text splits into word, number and punctuation
pieces, and long word pieces are further split into subword chunks of at
most four characters (the empirical average for English BPE is ~4 chars
per token).  The approximation is deterministic and monotone (more text
never yields fewer tokens), which is all the cost accounting needs.
"""

from __future__ import annotations

import re
from functools import lru_cache

_PIECE = re.compile(
    r"""
    [A-Za-z]+            # words
    | \d+                # digit runs
    | [^\sA-Za-z\d]      # each punctuation / symbol char
    """,
    re.VERBOSE,
)

#: Maximum characters a single subword token covers.
SUBWORD_LEN = 4

#: Digits are grouped ~3 per token (GPT tokenizers chunk digit runs).
DIGIT_GROUP = 3


#: One match per *token* (not per piece): greedy repetition chunks a
#: letter run of length n into ceil(n / SUBWORD_LEN) matches and a digit
#: run into ceil(n / DIGIT_GROUP) matches — exactly the substrings
#: :func:`tokenize_text` produces — so counting a line's tokens is a
#: single C-level scan instead of a Python loop over pieces.
_TOKEN = re.compile(
    r"[A-Za-z]{1,%d}|\d{1,%d}|[^\sA-Za-z\d]" % (SUBWORD_LEN, DIGIT_GROUP)
)


def tokenize_text(text: str) -> list[str]:
    """Split ``text`` into approximate BPE tokens."""
    tokens: list[str] = []
    for piece in _PIECE.findall(text):
        if piece.isdigit():
            for start in range(0, len(piece), DIGIT_GROUP):
                tokens.append(piece[start : start + DIGIT_GROUP])
        elif piece.isalpha() and len(piece) > SUBWORD_LEN:
            for start in range(0, len(piece), SUBWORD_LEN):
                tokens.append(piece[start : start + SUBWORD_LEN])
        else:
            tokens.append(piece)
    return tokens


#: Distinct lines whose counts are remembered.  A table's or
#: ingredient's prompts share their task line, column list, value hints
#: and demonstrations, so a few thousand entries hold every hot line of
#: the largest worlds while keeping the memo's footprint fixed.
LINE_MEMO_SIZE = 8192


@lru_cache(maxsize=LINE_MEMO_SIZE)
def _line_tokens(line: str) -> int:
    return len(_TOKEN.findall(line))


def count_tokens(text: str) -> int:
    """Number of approximate tokens in ``text``.

    Equal to ``len(tokenize_text(text))`` for every input.  No token
    spans whitespace — letter and digit runs stop at it and every other
    non-space character is a token of its own — so the count is additive
    over the lines of ``text`` and a remembered line is not scanned
    again: prompts that repeat a prefix pay only for the lines that
    differ.
    """
    return sum(map(_line_tokens, text.split("\n")))
