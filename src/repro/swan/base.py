"""Core datatypes shared by worlds, curation, questions and the pipelines.

A :class:`World` is the *ground truth*: the original (uncurated) database
content plus, derived from it, the truth for every cell an LLM will be
asked to generate.  Curation produces the database users actually query;
the difference between the two is exactly what makes a question
"beyond-database".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CurationError
from repro.sqlengine.schema import DatabaseSchema

#: Kinds of generated values (Section 3.3 of the paper distinguishes
#: free-form response from value selection; we additionally tag numeric and
#: one-to-many columns because their factuality dynamics differ).
KIND_SELECTION = "selection"
KIND_FREEFORM = "freeform"
KIND_NUMERIC = "numeric"
KIND_MULTI = "multi"  # one-to-many, condensed to a comma-joined string

_VALID_KINDS = frozenset({KIND_SELECTION, KIND_FREEFORM, KIND_NUMERIC, KIND_MULTI})


@dataclass(frozen=True)
class ExpansionColumn:
    """One LLM-generated column of an expansion table.

    ``keywords`` let the simulated model resolve natural-language questions
    ("Which publisher ...?") to this attribute, standing in for semantic
    understanding.  ``value_list`` names a retained value list (Section
    3.3) for selection columns.
    """

    name: str
    kind: str
    keywords: tuple[str, ...]
    value_list: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise CurationError(f"unknown expansion column kind {self.kind!r}")
        if self.kind == KIND_SELECTION and not self.value_list:
            raise CurationError(
                f"selection column {self.name!r} must name a value list"
            )


@dataclass(frozen=True)
class ExpansionTable:
    """A table to be generated by LLMs after schema expansion.

    ``key_columns`` are the meaningful keys (Section 3.4): human-readable
    attributes that uniquely identify a row of ``source_table`` in the
    curated database, and that the LLM receives as input.
    """

    name: str
    source_table: str
    key_columns: tuple[str, ...]
    columns: tuple[ExpansionColumn, ...]

    def generated_column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def all_column_names(self) -> list[str]:
        return list(self.key_columns) + self.generated_column_names()

    def column(self, name: str) -> ExpansionColumn:
        for col in self.columns:
            if col.name == name:
                return col
        raise CurationError(f"no generated column {name!r} in {self.name!r}")


#: Ground truth for one expansion table: key tuple -> {column -> value}.
#: MULTI columns hold a tuple of strings (the "many" side before
#: condensation).
TruthMap = dict[tuple, dict[str, object]]


@dataclass
class World:
    """Everything there is to know about one SWAN database.

    - ``original_schema`` / ``original_rows``: the full database the gold
      queries run against.
    - ``curated_schema`` / ``curated_rows``: the database after column and
      table drops — what hybrid queries actually see.
    - ``expansions``: the LLM-generated tables SWAN asks for, with their
      ground truth in ``truth``.
    - ``value_lists``: retained distinct-value lists offered to the LLM.

    A hand-built world (scale 1) holds its rows as plain lists.  For
    ``scale`` > 1 every entry of ``original_rows`` and ``curated_rows``
    is a read-only sequence that generates its replica rows when read
    (:class:`~repro.swan.scale.ReplicaRows`); readers rely only on
    ``len`` and iteration.
    """

    name: str
    title: str
    original_schema: DatabaseSchema
    curated_schema: DatabaseSchema
    original_rows: dict[str, Sequence[tuple]]
    curated_rows: dict[str, Sequence[tuple]]
    expansions: list[ExpansionTable]
    truth: dict[str, TruthMap]
    value_lists: dict[str, list[str]] = field(default_factory=dict)
    dropped_columns: int = 0
    #: expansion name -> key -> knowledge-popularity multiplier.  Famous
    #: entities (well-known heroes, star players) are easier for an LLM
    #: than long-tail ones; 1.0 when unspecified.
    popularity: dict[str, dict[tuple, float]] = field(default_factory=dict)
    #: row-multiplication factor this world was synthesized at (1 = the
    #: hand-built base population; see :mod:`repro.swan.scale`).
    scale: int = 1

    def expansion(self, name: str) -> ExpansionTable:
        for table in self.expansions:
            if table.name == name:
                return table
        raise CurationError(f"no expansion table {name!r} in world {self.name!r}")

    def keys_for(self, expansion_name: str) -> list[tuple]:
        """All key tuples of an expansion table, in truth order."""
        return list(self.truth[expansion_name].keys())

    def truth_value(self, expansion_name: str, key: tuple, column: str) -> object:
        """Ground-truth value for one generated cell."""
        try:
            return self.truth[expansion_name][key][column]
        except KeyError as exc:
            raise CurationError(
                f"no ground truth for {expansion_name}{key}.{column}"
            ) from exc

    def key_popularity(self, expansion_name: str, key: tuple) -> float:
        """Knowledge-popularity multiplier for one entity (default 1.0)."""
        return self.popularity.get(expansion_name, {}).get(key, 1.0)

    def stats(self) -> dict[str, object]:
        """Table 1 statistics for this database (curated view)."""
        table_count = len(self.curated_schema.tables)
        total_rows = sum(len(rows) for rows in self.curated_rows.values())
        return {
            "database": self.title,
            "tables": table_count,
            "rows_per_table": round(total_rows / table_count) if table_count else 0,
            "cols_dropped": self.dropped_columns,
        }


@dataclass(frozen=True)
class Question:
    """One beyond-database question (Section 3.5).

    - ``gold_sql`` runs on the *original* database and defines the expected
      answer.
    - ``hqdl_sql`` runs on the curated database after HQDL materialized the
      expansion tables.
    - ``blend_sql`` is the hybrid query in the BlendSQL-style dialect with
      ``{{LLMMap/LLMQA/LLMJoin}}`` ingredients.
    - ``ordered`` marks questions whose answer order matters (gold query
      has ORDER BY without a wrapping aggregate).
    - ``expansion_columns`` lists the generated attributes the question
      depends on (used by analyses and ablations, not by execution).
    """

    qid: str
    database: str
    text: str
    gold_sql: str
    hqdl_sql: str
    blend_sql: str
    expansion_columns: tuple[str, ...] = ()
    ordered: bool = False
