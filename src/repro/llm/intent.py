"""The prompt protocol: markers, prompt objects, intents, and the text reader.

Every prompt the pipelines send is rendered from a small structured
*intent* — what the simulated model needs to know to answer it:

- row (HQDL, :mod:`repro.core.prompts`): the expansion table, the target
  entry's fields, the shot count and whether context rows are present;
- map (UDF LLMMap / LLMJoin batches): the question, the keys, the shots;
- QA (UDF LLMQA): the question and the shots;
- equivalence (semantic-cache rewriting): the two questions.

A builder returns a :class:`Prompt`: the rendered text (a ``str``, so
every cache, hash, token count and provenance id still sees exactly the
bytes it always saw) carrying the intent it was rendered from, so the
model does not have to read it back out of the text.  :func:`intent_of`
is the text-only path — the one reader of a prompt's text, used for any
prompt that arrives without an intent — and the tier-1 property tests
prove it returns the builder's intent for every planned SWAN prompt.

A builder attaches no intent when its inputs would not survive the round
trip through text (:func:`inert`, :func:`plain_keys`,
:func:`plain_entry`): a key part holding ``|`` or a line break, a
question that names a protocol marker, and the like.  The model then
reads the text, exactly as it would without intents.

A leaf module: nothing here imports another ``repro.llm`` module, so the
builders in :mod:`repro.core` and :mod:`repro.udf` and the model in
:mod:`repro.llm.chat` all import it without pulling in each other.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import LLMError

# -- prompt protocol markers (shared by the builders and the reader) ---------

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
FIRST_QUESTION_MARKER = "Q1:"
SECOND_QUESTION_MARKER = "Q2:"

#: every marker :func:`intent_of` looks for: an input naming one of them
#: could change which protocol, line or shot count the text reads as
_MARKER_RE = re.compile(
    "|".join(
        re.escape(marker)
        for marker in (
            TARGET_ENTRY_MARKER, EXAMPLE_ENTRY_MARKER, CONTEXT_ROW_MARKER,
            MAP_EXAMPLE_MARKER, QUESTION_MARKER, MAP_KEYS_MARKER,
            EQUIVALENCE_MARKER, FIRST_QUESTION_MARKER, SECOND_QUESTION_MARKER,
        )
    )
)
_WORD_RE = re.compile(r"\w+")


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


def _strip_quotes(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1].replace(text[0] * 2, text[0])
    return text


# -- intents -------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class RowIntent:
    """An HQDL row prompt: complete the target entry of ``table``.

    The target entry is ``key`` followed by ``blanks`` ``?`` placeholders
    (see :attr:`entry`); the model keeps as many leading fields as the
    table has key columns.  A builder passes the key tuple it already
    holds, so a table's prompts add no per-prompt entry tuple.
    """

    table: str
    key: tuple[str, ...]
    blanks: int
    shots: int
    context: bool

    @property
    def entry(self) -> tuple[str, ...]:
        return self.key + ("?",) * self.blanks

    def __eq__(self, other: object) -> bool:
        if type(other) is not RowIntent:
            return NotImplemented
        # the reader cannot tell a key part from a placeholder, so it keeps
        # every field in ``key``: two intents agree when their entries do
        return (self.table, self.entry, self.shots, self.context) == (
            other.table, other.entry, other.shots, other.context
        )


@dataclass(slots=True)
class MapHeader:
    """What every batch of one LLMMap/LLMJoin ingredient shares."""

    question: str
    shots: int


@dataclass(slots=True, eq=False)
class MapIntent:
    """A batched map prompt: answer ``header.question`` for each key.

    Shares its header with every batch of the ingredient and its key
    list with the caller, so an intent costs two references.
    """

    header: MapHeader
    keys: Sequence[tuple]

    @property
    def question(self) -> str:
        return self.header.question

    @property
    def shots(self) -> int:
        return self.header.shots

    def __eq__(self, other: object) -> bool:
        if type(other) is not MapIntent:
            return NotImplemented
        # a batch may arrive as a list or a tuple; its keys are what count
        return self.header == other.header and tuple(self.keys) == tuple(
            other.keys
        )


@dataclass(slots=True)
class QaIntent:
    """A scalar LLMQA prompt."""

    question: str
    shots: int


@dataclass(slots=True)
class EquivalenceIntent:
    """Do two phrasings ask for the same generated attribute?"""

    first: str
    second: str


Intent = Union[RowIntent, MapIntent, QaIntent, EquivalenceIntent]


class Prompt(str):
    """Prompt text plus the intent it was rendered from (None: read the text).

    The text is the prompt for every purpose but one: it is the cache
    key, the disk key, the provenance call-id, the token count and the
    hash input of every simulated format error.  Only the model reads
    :attr:`intent`, and only when it is set.  Anything that outlives one
    dispatch (a cache entry, a ledger) stores ``str(prompt)``, so intents
    die with the call that carried them.
    """

    __slots__ = ("intent",)

    def __new__(cls, text: str, intent: Optional[Intent] = None) -> "Prompt":
        prompt = super().__new__(cls, text)
        prompt.intent = intent
        return prompt


# -- when an intent survives the text --------------------------------------------


def inert(text: str) -> bool:
    """Whether a rendered input stays on its line and names no marker.

    Conservative: a tab, or a marker straddling two joined inputs, also
    fails — such prompts are read from their text, which is always right.
    """
    if not text.isprintable():
        return False
    if ":" not in text and "?" not in text:
        return True  # every marker holds one of the two
    return _MARKER_RE.search(text) is None


def plain_keys(batch: Sequence[tuple]) -> bool:
    """Whether map key lines read back as exactly these key tuples.

    Every part must be a ``str`` with no ``|`` (the part separator) and
    nothing :func:`inert` rejects, and no key may be empty; quoting keeps
    every other character, surrounding whitespace included, intact.
    """
    try:
        flat = "".join(map("".join, batch))
    except TypeError:
        return False
    return () not in batch and "|" not in flat and inert(flat)


def plain_entry(key: tuple, width: int) -> bool:
    """Whether a row target entry reads back as exactly ``key``.

    The row reader strips each field, so no part may carry surrounding
    whitespace either.  In :func:`inert` text the only whitespace is the
    ASCII space, so such a part shows as a space at either end of the
    ``|``-joined parts or beside a ``|``.
    """
    try:
        if tuple.__len__(key) != width:
            return False
        flat = "|".join(key)
    except TypeError:
        return False
    return (
        inert(flat)
        and flat == flat.strip()
        and "| " not in flat
        and " |" not in flat
    )


def plain_table(name: str) -> bool:
    """Whether the row task line names ``name`` as its table."""
    return _WORD_RE.fullmatch(name) is not None


# -- the text-only path ----------------------------------------------------------


def intent_of(text: str) -> Intent:
    """The intent a prompt's text expresses, read the way the model reads it.

    The protocol is the first that matches: a target entry makes a row
    prompt, the equivalence marker an equivalence check, a question with
    a keys block a map prompt, a question alone a QA prompt.  Within a
    protocol each value comes from the first line carrying its marker;
    shots are the number of demonstration markers anywhere in the text.
    """
    lines = text.splitlines()

    def line_after(marker: str) -> str:
        for line in lines:
            if marker in line:
                return line.split(marker, 1)[1].strip()
        raise LLMError(f"prompt is missing the {marker!r} line")

    if TARGET_ENTRY_MARKER in text:
        table = re.search(r"the `(\w+)` table", text)
        if table is None:
            raise LLMError("row prompt does not name its expansion table")
        return RowIntent(
            table.group(1),
            tuple(parse_quoted_row(line_after(TARGET_ENTRY_MARKER))),
            0,
            text.count(EXAMPLE_ENTRY_MARKER),
            CONTEXT_ROW_MARKER in text,
        )
    if EQUIVALENCE_MARKER in text:
        return EquivalenceIntent(
            _strip_quotes(line_after(FIRST_QUESTION_MARKER)),
            _strip_quotes(line_after(SECOND_QUESTION_MARKER)),
        )
    if QUESTION_MARKER not in text:
        raise LLMError(
            f"prompt does not match any known protocol: {text[:120]!r}"
        )
    shots = text.count(MAP_EXAMPLE_MARKER)
    if MAP_KEYS_MARKER not in text:
        return QaIntent(line_after(QUESTION_MARKER), shots)
    # map: the question is the rest of the first line naming the marker;
    # the keys block opens at the first bare ``Keys:`` line and closes at
    # the first non-key line after it
    key_line = re.compile(r"^\s*(\d+)\.\s+(.*)$")
    question: Optional[str] = None
    keys: list[tuple[str, ...]] = []
    seen_marker = keys_done = False
    for line in lines:
        if question is None and QUESTION_MARKER in line:
            question = line.split(QUESTION_MARKER, 1)[1].strip()
        if keys_done:
            if question is not None:
                break
            continue
        if not seen_marker:
            seen_marker = line.strip() == MAP_KEYS_MARKER
            continue
        match = key_line.match(line)
        if match is None:
            if keys:
                keys_done = True
                if question is not None:
                    break
            continue
        parts = match.group(2).split("|")
        keys.append(tuple(_strip_quotes(p.strip()) for p in parts))
    if question is None:
        raise LLMError(f"prompt is missing the {QUESTION_MARKER!r} line")
    return MapIntent(MapHeader(question, shots), keys)
