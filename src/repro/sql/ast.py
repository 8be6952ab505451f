"""Abstract syntax tree produced by the parser.

Pure data: no name resolution or typing here (the analyzer does that).
Expression nodes share the :class:`Expr` base; statement nodes share
:class:`Statement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


class Expr:
    """Base class for expression AST nodes."""

    def children(self) -> tuple["Expr", ...]:
        """The sub-expressions, in source order (a leaf has none)."""
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference (``t.col`` or ``col``)."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.upper()} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'not' | '-'
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op.upper()} {self.operand})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({prefix}{inner})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """CASE [operand] WHEN c THEN v ... [ELSE d] END."""

    operand: Optional[Expr]
    branches: tuple[tuple[Expr, Expr], ...]
    otherwise: Optional[Expr]

    def children(self) -> tuple[Expr, ...]:
        parts = [] if self.operand is None else [self.operand]
        for branch in self.branches:
            parts.extend(branch)
        if self.otherwise is not None:
            parts.append(self.otherwise)
        return tuple(parts)

    def __str__(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(str(self.operand))
        for condition, value in self.branches:
            parts.append(f"WHEN {condition} THEN {value}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    type_name: str

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.type_name.upper()})"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {op} {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    options: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, *self.options)

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(o) for o in self.options)
        return f"({self.operand} {op} ({inner}))"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` — uncorrelated subqueries only."""

    operand: Expr
    query: "SelectStatement"
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        # The operand only: the subquery is a statement with a scope of
        # its own, not a sub-expression of this one.
        return (self.operand,)

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {op} (<subquery>))"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand, self.pattern)

    def __str__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand} {op} {self.pattern})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {op})"


# ---------------------------------------------------------------------------
# Relations (FROM clause)
# ---------------------------------------------------------------------------


class Relation:
    """Base class for FROM-clause items."""


@dataclass(frozen=True)
class TableRef(Relation):
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubqueryRef(Relation):
    query: "SelectStatement"
    alias: str


@dataclass(frozen=True)
class JoinRef(Relation):
    left: Relation
    right: Relation
    join_type: str  # 'inner' | 'left' | 'right' | 'full'
    condition: Optional[Expr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for statement AST nodes."""


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass
class SelectStatement(Statement):
    items: list[SelectItem]
    relation: Optional[Relation] = None
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    #: UNION ALL branches appended after this select.
    union_all: list["SelectStatement"] = field(default_factory=list)
    #: DISTRIBUTE BY columns (Shark co-partitioning, Section 3.4).
    distribute_by: list[Expr] = field(default_factory=list)


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    properties: dict[str, str] = field(default_factory=dict)
    as_select: Optional[SelectStatement] = None
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass
class InsertInto(Statement):
    table: str
    select: Optional[SelectStatement] = None
    values: list[list[Expr]] = field(default_factory=list)


@dataclass(frozen=True)
class Explain(Statement):
    statement: Statement
    #: EXPLAIN ANALYZE: execute the statement and annotate the plan with
    #: per-stage runtime metrics.
    analyze: bool = False


@dataclass(frozen=True)
class CacheTable(Statement):
    name: str
    uncache: bool = False
