"""Plain-text table rendering for experiment reports.

Produces the aligned tables the benches print — the same rows/series the
paper's tables report, in a shape easy to eyeball against the original.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _cell_text(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render an aligned text table."""
    text_rows = [[_cell_text(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)


def format_records(
    records: Sequence[Mapping[str, object]], *, title: str = ""
) -> str:
    """Render a list of homogeneous dicts as a table."""
    if not records:
        return title or "(no rows)"
    headers = list(records[0].keys())
    rows = [[record.get(h, "") for h in headers] for record in records]
    return format_table(headers, rows, title=title)


def percent(value: float) -> str:
    """Format a 0..1 fraction the way the paper prints percentages."""
    return f"{value * 100:.1f}%"


def format_resilience(counters: Mapping[str, int], *, title: str = "") -> str:
    """Render resilience accounting (a ``ResilienceReport.as_dict()``).

    Shows the attempt ledger and spells out the invariant every chaos
    run must satisfy: attempts = successes + retries + exhausted + fatal.
    """
    headers = [
        "Attempts", "Successes", "Retries", "Exhausted", "Fatal",
        "Short-circuits", "Breaker trips", "Degraded batches", "Degraded rows",
    ]
    row = [
        counters.get("attempts", 0),
        counters.get("successes", 0),
        counters.get("retries", 0),
        counters.get("exhausted", 0),
        counters.get("fatal", 0),
        counters.get("short_circuits", 0),
        counters.get("breaker_trips", 0),
        counters.get("degraded_batches", 0),
        counters.get("degraded_rows", 0),
    ]
    accounted = row[0] == row[1] + row[2] + row[3] + row[4]
    table = format_table(headers, [row], title=title)
    status = "accounted" if accounted else "NOT ACCOUNTED"
    return (
        f"{table}\n"
        f"attempts = successes + retries + exhausted + fatal: {status}"
    )
