"""Generic AST traversal and the rewrite helpers the hybrid executor needs.

Offers:

- :func:`walk` — pre-order iteration over every node.
- :func:`transform` — bottom-up rewriting with a node→node function.
- :func:`find_ingredients` — every ``{{...}}`` call in a statement.
- :func:`split_conjuncts` / :func:`join_conjuncts` — WHERE decomposition.
- :func:`column_refs` / :func:`tables_in` — reference discovery.
- :func:`expression_is_pure` — True when an expression involves only base
  database columns (no ingredients), which makes it pushdown-safe.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, Optional

from repro.sqlparser import ast


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Yield ``node`` and every descendant, pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def transform(node: ast.Node, fn: Callable[[ast.Node], ast.Node]) -> ast.Node:
    """Rebuild the tree bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been transformed and
    returns its replacement (possibly the same object).  Lists and tuples of
    nodes inside dataclass fields are handled; tuples of (str, Select) in
    ``Select.compound`` are handled specially.

    ``IngredientSource`` nodes are treated atomically: their inner
    Ingredient is not visited separately, so a mapping that turns FROM-
    position ingredients into table sources cannot collide with one that
    rewrites expression-position ingredients.
    """
    if isinstance(node, ast.IngredientSource):
        return fn(node)
    replacements: dict[str, object] = {}
    for name in ast.child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            new_value = transform(value, fn)
            if new_value is not value:
                replacements[name] = new_value
        elif isinstance(value, list):
            new_list, changed = _transform_sequence(value, fn)
            if changed:
                replacements[name] = new_list
    if replacements:
        node = dataclasses.replace(node, **replacements)
    return fn(node)


def _transform_sequence(
    values: list, fn: Callable[[ast.Node], ast.Node]
) -> tuple[list, bool]:
    changed = False
    out = []
    for item in values:
        if isinstance(item, ast.Node):
            new_item = transform(item, fn)
            changed = changed or new_item is not item
            out.append(new_item)
        elif (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[1], ast.Node)
        ):
            new_second = transform(item[1], fn)
            changed = changed or new_second is not item[1]
            out.append((item[0], new_second))
        else:
            out.append(item)
    return out, changed


# ---------------------------------------------------------------------------
# Ingredient discovery
# ---------------------------------------------------------------------------


def find_ingredients(node: ast.Node) -> list[ast.Ingredient]:
    """Return every Ingredient in the tree, in pre-order."""
    found: list[ast.Ingredient] = []
    for item in walk(node):
        if isinstance(item, ast.Ingredient):
            found.append(item)
        elif isinstance(item, ast.IngredientSource):
            # walk() already visits the inner Ingredient via children();
            # nothing extra to do, but keep the branch for clarity.
            pass
    return found


def contains_ingredient(node: ast.Node) -> bool:
    """True when any ``{{...}}`` call appears anywhere in the tree."""
    return any(isinstance(item, ast.Ingredient) for item in walk(node))


# ---------------------------------------------------------------------------
# Conjunct handling
# ---------------------------------------------------------------------------


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a WHERE expression into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: list[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild a WHERE expression from a conjunct list (None when empty)."""
    result: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("AND", result, conjunct)
    return result


# ---------------------------------------------------------------------------
# Reference discovery
# ---------------------------------------------------------------------------


def column_refs(node: ast.Node) -> list[ast.ColumnRef]:
    """Every column reference in the tree, in pre-order."""
    return [item for item in walk(node) if isinstance(item, ast.ColumnRef)]


def tables_in(select: ast.Select) -> list[ast.TableName]:
    """Every base-table reference in a statement, including subqueries."""
    return [item for item in walk(select) if isinstance(item, ast.TableName)]


def source_names(source: Optional[ast.TableSource]) -> dict[str, ast.TableSource]:
    """Map visible alias → source for a FROM clause (flattening joins)."""
    names: dict[str, ast.TableSource] = {}

    def _visit(item: Optional[ast.TableSource]) -> None:
        if item is None:
            return
        if isinstance(item, ast.Join):
            _visit(item.left)
            _visit(item.right)
            return
        alias = item.source_alias()
        if alias:
            names[alias] = item

    _visit(source)
    return names


def expression_is_pure(expr: ast.Expr) -> bool:
    """True when the expression contains no ingredient and no subquery with
    an ingredient — i.e. it can be evaluated by the database alone."""
    for item in walk(expr):
        if isinstance(item, ast.Ingredient):
            return False
    return True


def replace_ingredients(
    node: ast.Node, mapping: Callable[[ast.Ingredient], ast.Node]
) -> ast.Node:
    """Replace every Ingredient expression via ``mapping``.

    ``IngredientSource`` nodes in FROM clauses are replaced by mapping the
    inner ingredient; the mapping must return a TableSource in that case.
    """

    def rewrite(item: ast.Node) -> ast.Node:
        if isinstance(item, ast.Ingredient):
            return mapping(item)
        if isinstance(item, ast.IngredientSource):
            replacement = mapping(item.ingredient)
            if isinstance(replacement, ast.TableSource):
                return replacement
            raise TypeError(
                "mapping for an ingredient table source must return a TableSource"
            )
        return item

    return transform(node, rewrite)
