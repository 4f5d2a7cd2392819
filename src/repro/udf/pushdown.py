"""Predicate pushdown analysis for the hybrid executor.

BlendSQL "optimizes queries by pushing down predicates to avoid
generating unnecessary data entries" (Section 4.3): before asking the
LLM for per-row values, database-only predicates restrict the key set.

:func:`pushable_conjuncts` decides which top-level AND-conjuncts of the
owning SELECT's WHERE clause can be evaluated by the database alone
against the ingredient's source table:

- the conjunct contains no ingredient (it is "pure");
- it contains no subquery (kept conservative: correlated subqueries could
  reference other tables);
- every column it references belongs to the source table — either
  qualified with the table's alias, or unqualified when the source table
  is the only table in scope.

:func:`calls_no_function` decides whether a pushed conjunct surely
selects the same keys from the same rows every time, which is what lets
the connection's key memo serve a repeated fetch.
"""

from __future__ import annotations

from typing import Optional

from repro.sqlparser import ast
from repro.sqlparser.rewrite import (
    column_refs,
    source_names,
    split_conjuncts,
    walk,
)


def calls_no_function(expr: ast.Expr) -> bool:
    """Whether ``expr`` calls no SQL function, not even through an operator.

    Some functions answer differently on unchanged rows — ``random()``,
    the date/time functions (``'now'``, ``CURRENT_TIMESTAMP``), a user
    function — so any call at all refuses reuse.  ``REGEXP`` calls a
    user function, ``regexp()``; ``LIKE`` and ``GLOB`` do not.
    """
    return not any(
        isinstance(node, ast.FuncCall)
        or (isinstance(node, ast.Like) and node.op.upper() not in ("LIKE", "GLOB"))
        for node in walk(expr)
    )


def _has_subquery(expr: ast.Expr) -> bool:
    return any(
        isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists, ast.Select))
        for node in walk(expr)
    )


def _has_ingredient(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.Ingredient) for node in walk(expr))


def conjunct_is_pushable(
    conjunct: ast.Expr,
    alias: str,
    source_columns: set[str],
    *,
    single_source: bool,
) -> bool:
    """Whether one WHERE conjunct can prefilter the ingredient's keys."""
    if _has_ingredient(conjunct) or _has_subquery(conjunct):
        return False
    refs = column_refs(conjunct)
    if not refs:
        return False  # constant predicates do not narrow keys; skip them
    for ref in refs:
        if ref.table is not None:
            if ref.table != alias:
                return False
        else:
            if not single_source or ref.column not in source_columns:
                return False
    return True


def pushable_conjuncts(
    select: ast.Select,
    alias: str,
    source_columns: set[str],
) -> list[ast.Expr]:
    """The WHERE conjuncts of ``select`` that restrict the source table."""
    sources = source_names(select.from_)
    single_source = len(sources) == 1
    return [
        conjunct
        for conjunct in split_conjuncts(select.where)
        if conjunct_is_pushable(
            conjunct, alias, source_columns, single_source=single_source
        )
    ]


def resolve_alias(
    select: Optional[ast.Select], table_name: str
) -> Optional[str]:
    """The alias under which ``table_name`` is visible in a SELECT's FROM."""
    if select is None:
        return None
    for alias, source in source_names(select.from_).items():
        if isinstance(source, ast.TableName) and source.name == table_name:
            return alias
    return None
