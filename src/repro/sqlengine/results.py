"""Query result container and the comparison semantics of the EX metric.

Execution accuracy (Section 5.1) counts a hybrid query as correct when its
result is *identical* to the gold query's result.  Identical means:

- same rows with the same multiplicity;
- in the same order when the gold query carries an ORDER BY, as a multiset
  otherwise;
- cell values compared after normalisation: floats rounded to a tolerance,
  integral floats folded into ints (SQLite freely mixes the two), strings
  compared exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Floats are rounded to this many decimal places before comparison, the
#: customary tolerance in text-to-SQL execution-accuracy harnesses.
FLOAT_DECIMALS = 4


def normalize_cell(value: object) -> object:
    """Normalise one cell for comparison."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return int(value)
    if isinstance(value, float):
        rounded = round(value, FLOAT_DECIMALS)
        if rounded == int(rounded):
            return int(rounded)
        return rounded
    if isinstance(value, bytes):
        return value.decode("utf-8", errors="replace")
    return value


def normalize_row(row: Sequence[object]) -> tuple[object, ...]:
    """Normalise one row for comparison."""
    return tuple(normalize_cell(cell) for cell in row)


@dataclass
class ResultSet:
    """Columns and rows returned by a query."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[object, ...]] = field(default_factory=list)

    @classmethod
    def from_cursor(cls, cursor) -> "ResultSet":
        """Build from a sqlite3 cursor that has executed a statement.

        Rows are taken as fetched: without a ``row_factory`` (none is
        ever set) sqlite3 already returns plain tuples.
        """
        columns = [d[0] for d in cursor.description] if cursor.description else []
        return cls(columns=columns, rows=cursor.fetchall())

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def normalized_rows(self) -> list[tuple[object, ...]]:
        return [normalize_row(row) for row in self.rows]

    def column_values(self, index: int = 0) -> list[object]:
        """All values of one column position."""
        return [row[index] for row in self.rows]

    def scalar(self) -> object:
        """The single value of a 1x1 result; None when empty."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def pretty(self, max_rows: int = 20) -> str:
        """Human-readable rendering for examples and error messages."""
        header = " | ".join(self.columns)
        divider = "-" * len(header)
        lines = [header, divider]
        for row in self.rows[:max_rows]:
            lines.append(" | ".join("" if v is None else str(v) for v in row))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


def results_match(
    expected: ResultSet,
    actual: ResultSet,
    *,
    ordered: bool = False,
) -> bool:
    """The EX comparison: identical rows, ordered or as a multiset.

    Column *names* are ignored (gold and hybrid queries label columns
    differently); column count and cell values are what matters.
    """
    expected_rows = expected.normalized_rows()
    actual_rows = actual.normalized_rows()
    if len(expected_rows) != len(actual_rows):
        return False
    if expected_rows and len(expected_rows[0]) != len(actual_rows[0]):
        return False
    if ordered:
        return expected_rows == actual_rows
    return Counter(expected_rows) == Counter(actual_rows)


def rows_to_multiset(rows: Iterable[Sequence[object]]) -> Counter:
    """Multiset of normalised rows (exposed for property tests)."""
    return Counter(normalize_row(row) for row in rows)
