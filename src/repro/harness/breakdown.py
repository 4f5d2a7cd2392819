"""Per-question error analysis (the Section 5.3 discussion, mechanised).

The paper explains its EX numbers qualitatively — LIMIT clauses mask
errors on non-top entities, value-selection questions fail differently
from free-form ones.  :func:`analyze_run` turns an
:class:`~repro.harness.runner.HQDLRun` into that analysis: failures are
broken down by database, by the expansion-column kinds the question
depends on, and by whether the gold query carries a LIMIT clause.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.eval.report import format_table, percent
from repro.harness.runner import HQDLRun
from repro.swan.benchmark import Swan


@dataclass
class ErrorBreakdown:
    """Aggregated failure analysis for one run."""

    model: str
    shots: int
    total: int = 0
    failures: int = 0
    by_database: Counter = field(default_factory=Counter)
    totals_by_database: Counter = field(default_factory=Counter)
    by_kind: Counter = field(default_factory=Counter)
    totals_by_kind: Counter = field(default_factory=Counter)
    limit_failures: int = 0
    limit_total: int = 0
    row_count_mismatches: int = 0
    qids: list[str] = field(default_factory=list)

    def failure_rate(self) -> float:
        return self.failures / self.total if self.total else 0.0

    def limit_failure_rate(self) -> float:
        return self.limit_failures / self.limit_total if self.limit_total else 0.0

    def scan_failure_rate(self) -> float:
        scans = self.total - self.limit_total
        scan_failures = self.failures - self.limit_failures
        return scan_failures / scans if scans else 0.0

    def render(self) -> str:
        """A readable breakdown report."""
        sections = [
            f"Error breakdown: {self.model}, {self.shots}-shot — "
            f"{self.failures}/{self.total} questions failed "
            f"({percent(self.failure_rate())})"
        ]
        rows = [
            [database,
             f"{self.by_database[database]}/{self.totals_by_database[database]}"]
            for database in sorted(self.totals_by_database)
        ]
        sections.append(format_table(["Database", "Failures"], rows))
        rows = [
            [kind, f"{self.by_kind[kind]}/{self.totals_by_kind[kind]}"]
            for kind in sorted(self.totals_by_kind)
        ]
        sections.append(
            format_table(["Depends on value kind", "Failures"], rows)
        )
        sections.append(
            f"LIMIT questions fail at {percent(self.limit_failure_rate())} vs "
            f"{percent(self.scan_failure_rate())} for full scans "
            "(the Section 5.3 masking effect)"
        )
        sections.append(
            f"{self.row_count_mismatches} of {self.failures} failures return "
            "the wrong number of rows (the rest differ only in content)"
        )
        return "\n\n".join(sections)


def analyze_run(swan: Swan, run: HQDLRun) -> ErrorBreakdown:
    """Break down which questions a run failed, and how."""
    breakdown = ErrorBreakdown(model=run.model, shots=run.shots)
    kinds_by_column = {
        (world_name, column.name): column.kind
        for world_name, world in swan.worlds.items()
        for expansion in world.expansions
        for column in expansion.columns
    }
    for outcome in run.outcomes:
        question = swan.question(outcome.qid)
        has_limit = "LIMIT" in question.gold_sql.upper()
        kinds = {
            kinds_by_column.get((question.database, column), "unknown")
            for column in question.expansion_columns
        }
        breakdown.total += 1
        breakdown.totals_by_database[question.database] += 1
        breakdown.limit_total += int(has_limit)
        for kind in kinds:
            breakdown.totals_by_kind[kind] += 1
        if outcome.correct:
            continue
        breakdown.failures += 1
        breakdown.qids.append(outcome.qid)
        breakdown.by_database[question.database] += 1
        breakdown.limit_failures += int(has_limit)
        if outcome.expected_rows != outcome.actual_rows:
            breakdown.row_count_mismatches += 1
        for kind in kinds:
            breakdown.by_kind[kind] += 1
    return breakdown
