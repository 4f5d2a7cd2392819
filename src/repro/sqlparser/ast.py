"""Dataclass AST for the supported SQL subset.

Nodes are plain frozen-ish dataclasses (mutable, for cheap rewriting) with a
common :class:`Node` base.  Children are discovered generically through
dataclass fields, which lets :mod:`repro.sqlparser.rewrite` offer `walk` and
`transform` without per-node boilerplate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


#: field annotations that can never hold a child node
_LEAF_ANNOTATIONS = frozenset(
    {"str", "bool", "object", "Optional[str]", "list[str]", "dict[str, object]"}
)
#: node class -> names of the fields that may hold child nodes
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def child_fields(cls: type) -> tuple[str, ...]:
    """The fields of a node class that may hold nodes, in declaration order.

    Computed once per class: ``dataclasses.fields`` on every visit was
    the single hottest call of a tree walk.
    """
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            f.name
            for f in dataclasses.fields(cls)
            if f.type not in _LEAF_ANNOTATIONS
        )
    return names


@dataclass
class Node:
    """Base class for all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (descending into lists and tuples)."""
        for name in child_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    """A literal constant.

    ``value`` is the Python value (str, int, float, bool, None); ``kind`` is
    one of 'string', 'number', 'null', 'bool'.
    """

    value: object
    kind: str

    @staticmethod
    def string(value: str) -> "Literal":
        return Literal(value, "string")

    @staticmethod
    def number(value: Union[int, float]) -> "Literal":
        return Literal(value, "number")

    @staticmethod
    def null() -> "Literal":
        return Literal(None, "null")

    @staticmethod
    def boolean(value: bool) -> "Literal":
        return Literal(value, "bool")


@dataclass
class ColumnRef(Expr):
    """A (possibly qualified) column reference: ``t.c`` or ``c``."""

    column: str
    table: Optional[str] = None

    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list or in COUNT(*)."""

    table: Optional[str] = None


@dataclass
class Parameter(Expr):
    """A bound parameter such as ``?`` or ``:name``."""

    name: str


@dataclass
class UnaryOp(Expr):
    """Unary operator application: NOT x, -x, +x, ~x."""

    op: str
    operand: Expr


@dataclass
class BinaryOp(Expr):
    """Binary operator application (arithmetic, comparison, AND/OR, ||)."""

    op: str
    left: Expr
    right: Expr


@dataclass
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    """``expr [NOT] IN (e1, e2, ...)``."""

    operand: Expr
    items: list[Expr]
    negated: bool = False


@dataclass
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expr
    subquery: "Select"
    negated: bool = False


@dataclass
class Like(Expr):
    """``expr [NOT] LIKE/GLOB/REGEXP pattern [ESCAPE e]``."""

    operand: Expr
    pattern: Expr
    op: str = "LIKE"
    negated: bool = False
    escape: Optional[Expr] = None


@dataclass
class FuncCall(Expr):
    """A function call such as ``COUNT(DISTINCT x)`` or ``SUBSTR(a, 1, 3)``."""

    name: str
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False


@dataclass
class Cast(Expr):
    """``CAST(expr AS type)``."""

    operand: Expr
    type_name: str


@dataclass
class CaseWhen(Node):
    """A single WHEN/THEN arm of a CASE expression."""

    condition: Expr
    result: Expr


@dataclass
class Case(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Optional[Expr]
    whens: list[CaseWhen]
    else_: Optional[Expr] = None


@dataclass
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(Expr):
    """A parenthesised SELECT used as a scalar expression."""

    subquery: "Select"


@dataclass
class ExprList(Expr):
    """A parenthesised tuple of expressions, e.g. the left side of row IN."""

    items: list[Expr]


@dataclass
class Ingredient(Expr):
    """A BlendSQL-style ``{{Name('arg1', 'arg2', kw=value)}}`` call.

    ``name`` is the ingredient function (LLMMap, LLMQA, LLMJoin), ``args``
    the positional string arguments, ``options`` the keyword options, and
    ``raw`` the original text between the braces.
    """

    name: str
    args: list[str] = field(default_factory=list)
    options: dict[str, object] = field(default_factory=dict)
    raw: str = ""


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------


@dataclass
class TableSource(Node):
    """Base class for anything that can appear in FROM."""

    def source_alias(self) -> Optional[str]:
        """The name this source is visible under, if any."""
        raise NotImplementedError


@dataclass
class TableName(TableSource):
    """A base table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    def source_alias(self) -> Optional[str]:
        return self.alias or self.name


@dataclass
class SubquerySource(TableSource):
    """A parenthesised SELECT in FROM, with an optional alias."""

    select: "Select"
    alias: Optional[str] = None

    def source_alias(self) -> Optional[str]:
        return self.alias


@dataclass
class IngredientSource(TableSource):
    """An ingredient used as a table in FROM, e.g. ``JOIN {{LLMJoin(...)}}``."""

    ingredient: Ingredient
    alias: Optional[str] = None

    def source_alias(self) -> Optional[str]:
        return self.alias


@dataclass
class Join(TableSource):
    """A join between two table sources.

    ``kind`` is one of 'INNER', 'LEFT', 'LEFT OUTER', 'CROSS', 'NATURAL',
    'RIGHT', 'FULL'.  Exactly one of ``on`` / ``using`` may be set.
    """

    left: TableSource
    right: TableSource
    kind: str = "INNER"
    on: Optional[Expr] = None
    using: list[str] = field(default_factory=list)

    def source_alias(self) -> Optional[str]:
        return None


# ---------------------------------------------------------------------------
# SELECT statement
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    """One ORDER BY term."""

    expr: Expr
    descending: bool = False
    nulls: Optional[str] = None  # 'FIRST' | 'LAST'


@dataclass
class CommonTableExpr(Node):
    """A single CTE in a WITH clause."""

    name: str
    select: "Select"
    columns: list[str] = field(default_factory=list)


@dataclass
class Select(Node):
    """A full SELECT statement.

    Set operations are represented through ``compound``: a list of
    (operator, Select) pairs applied left-to-right, with ORDER BY / LIMIT
    belonging to the whole compound (as in SQLite).
    """

    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_: Optional[TableSource] = None
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    ctes: list[CommonTableExpr] = field(default_factory=list)
    compound: list[tuple[str, "Select"]] = field(default_factory=list)

    def children(self) -> Iterator[Node]:  # include compound selects
        yield from super().children()
        for _, select in self.compound:
            yield select
