"""Bound (resolved, typed) expressions evaluated over rows.

The analyzer converts AST expressions into this tree: column references
become ordinal indices into the operator's input row, functions are
resolved against the builtin/UDF registries, and types are checked.  SQL
three-valued logic is honoured: comparisons and arithmetic involving NULL
yield NULL, AND/OR follow Kleene logic, and WHERE keeps only rows whose
predicate is exactly TRUE.
"""

from __future__ import annotations

import copy
import math
import operator
import re
from typing import Any, Callable, Optional, Sequence

from repro.datatypes import (
    BOOLEAN,
    DATE,
    DOUBLE,
    STRING,
    TIMESTAMP,
    DataType,
    promote,
)
from repro.errors import TypeMismatchError


class BoundExpr:
    """Base class: a typed expression evaluable against a row tuple."""

    def __init__(self, data_type: DataType, name: str):
        self.data_type = data_type
        self.name = name

    #: The node's scalar rule ``apply(*values)`` over its children's values
    #: (NULL propagation, division by zero, ...): the one statement of its
    #: semantics, which ``eval`` and the vector kernels' fallback both call.
    #: None where ``eval`` short-circuits instead (AND, OR, CASE).
    apply: Optional[Callable[..., Any]] = None

    def eval(self, row: tuple) -> Any:
        raise NotImplementedError

    def children(self) -> Sequence["BoundExpr"]:
        return ()

    def references(self) -> set[int]:
        """Input ordinals this expression reads (for column pruning)."""
        refs: set[int] = set()
        stack: list[BoundExpr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, BoundColumn):
                refs.add(node.index)
            stack.extend(node.children())
        return refs

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class BoundLiteral(BoundExpr):
    def __init__(self, value: Any, data_type: DataType):
        super().__init__(data_type, repr(value))
        self.value = value

    def eval(self, row: tuple) -> Any:
        return self.value


class BoundColumn(BoundExpr):
    """A reference to ordinal ``index`` of the input row.

    ``declared`` says ``data_type`` is a stored column's declared type,
    not the estimated type of a value computed below (an aggregate, a
    subquery's output, a UDF's defaulted STRING).
    """

    def __init__(
        self, index: int, data_type: DataType, name: str, declared: bool = False
    ):
        super().__init__(data_type, name)
        self.index = index
        self.declared = declared

    def eval(self, row: tuple) -> Any:
        return row[self.index]


def _remainder(a: Any, b: Any) -> Any:
    """Hive's (Java's) ``%``: the truncated remainder, which takes the sign
    of the dividend (``-7 % 3`` is -1), not Python's floored one."""
    if isinstance(a, float) or isinstance(b, float):
        return math.fmod(a, b)
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


def _wrap_long(value: Any) -> Any:
    """An integer wrapped to 64 bits, as Hive's Java ``long`` and the
    vector kernels' int64 arrays wrap it; any other value as it is."""
    if type(value) is int and not -(1 << 63) <= value < 1 << 63:
        return (value + (1 << 63)) % (1 << 64) - (1 << 63)
    return value


class BoundArithmetic(BoundExpr):
    _OPS: dict[str, Callable[[Any, Any], Any]] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "%": _remainder,
    }

    def __init__(self, op: str, left: BoundExpr, right: BoundExpr):
        if op == "/":
            data_type = DOUBLE
        elif op == "+" and not _is_numeric_like(left) and not _is_numeric_like(right):
            # String concatenation via '+' is rejected; use CONCAT.
            raise TypeMismatchError(
                f"cannot apply '+' to {left.data_type} and {right.data_type}"
            )
        else:
            data_type = promote(left.data_type, right.data_type)
        super().__init__(data_type, f"({left.name} {op} {right.name})")
        self.op = op
        self.left = left
        self.right = right
        self._fn = self._OPS.get(op)

    def apply(self, left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        if self.op in ("/", "%") and right == 0:
            return None  # SQL: division/modulo by zero yields NULL (Hive).
        if self.op == "/":
            return left / right
        return _wrap_long(self._fn(left, right))

    def eval(self, row: tuple) -> Any:
        return self.apply(self.left.eval(row), self.right.eval(row))

    def children(self) -> Sequence[BoundExpr]:
        return (self.left, self.right)


def _is_numeric_like(expr: BoundExpr) -> bool:
    from repro.datatypes import is_numeric

    return is_numeric(expr.data_type)


def _order_family(expr: BoundExpr) -> Optional[str]:
    """Which values ``expr`` can be ordered against: numbers and booleans
    order among themselves, strings, dates and timestamps only with their
    own kind.  None when the check does not apply — a computed operand
    (CASE, CAST, a UDF call, a column holding one: its type is only a
    guess), a NULL literal, a nested type."""
    if isinstance(expr, BoundColumn):
        if not expr.declared:
            return None
    elif not (isinstance(expr, BoundLiteral) and expr.value is not None):
        return None
    if _is_numeric_like(expr) or expr.data_type == BOOLEAN:
        return "numeric"
    if expr.data_type in (STRING, DATE, TIMESTAMP):
        return expr.data_type.name
    return None


def _check_orderable(name: str, *operands: BoundExpr) -> None:
    """Reject at bind time an ordering whose operands Python cannot
    order: every task would otherwise die of the same TypeError."""
    families = {
        family: operand
        for operand in operands
        if (family := _order_family(operand)) is not None
    }
    if len(families) > 1:
        kinds = " with ".join(
            str(operand.data_type) for operand in families.values()
        )
        raise TypeMismatchError(f"cannot order {kinds} in {name}")


class BoundComparison(BoundExpr):
    _OPS: dict[str, Callable[[Any, Any], bool]] = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, op: str, left: BoundExpr, right: BoundExpr):
        super().__init__(BOOLEAN, f"({left.name} {op} {right.name})")
        if op not in ("=", "<>"):
            _check_orderable(self.name, left, right)
        self.op = op
        self.left = left
        self.right = right
        self._fn = self._OPS[op]

    def apply(self, left: Any, right: Any) -> Optional[bool]:
        if left is None or right is None:
            return None
        return self._fn(left, right)

    def eval(self, row: tuple) -> Optional[bool]:
        return self.apply(self.left.eval(row), self.right.eval(row))

    def children(self) -> Sequence[BoundExpr]:
        return (self.left, self.right)


class BoundAnd(BoundExpr):
    def __init__(self, left: BoundExpr, right: BoundExpr):
        super().__init__(BOOLEAN, f"({left.name} AND {right.name})")
        self.left = left
        self.right = right

    def eval(self, row: tuple) -> Optional[bool]:
        left = self.left.eval(row)
        if left is False:
            return False
        right = self.right.eval(row)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True

    def children(self) -> Sequence[BoundExpr]:
        return (self.left, self.right)


class BoundOr(BoundExpr):
    def __init__(self, left: BoundExpr, right: BoundExpr):
        super().__init__(BOOLEAN, f"({left.name} OR {right.name})")
        self.left = left
        self.right = right

    def eval(self, row: tuple) -> Optional[bool]:
        left = self.left.eval(row)
        if left is True:
            return True
        right = self.right.eval(row)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    def children(self) -> Sequence[BoundExpr]:
        return (self.left, self.right)


class BoundNot(BoundExpr):
    def __init__(self, operand: BoundExpr):
        super().__init__(BOOLEAN, f"(NOT {operand.name})")
        self.operand = operand

    def apply(self, value: Any) -> Optional[bool]:
        if value is None:
            return None
        return not value

    def eval(self, row: tuple) -> Optional[bool]:
        return self.apply(self.operand.eval(row))

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand,)


class BoundNegate(BoundExpr):
    def __init__(self, operand: BoundExpr):
        super().__init__(operand.data_type, f"(-{operand.name})")
        self.operand = operand

    def apply(self, value: Any) -> Any:
        return None if value is None else _wrap_long(-value)

    def eval(self, row: tuple) -> Any:
        return self.apply(self.operand.eval(row))

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand,)


class BoundBetween(BoundExpr):
    def __init__(
        self, operand: BoundExpr, low: BoundExpr, high: BoundExpr,
        negated: bool = False,
    ):
        name = f"({operand.name} BETWEEN {low.name} AND {high.name})"
        super().__init__(BOOLEAN, name)
        _check_orderable(name, operand, low, high)
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def apply(self, value: Any, low: Any, high: Any) -> Optional[bool]:
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if self.negated else result

    def eval(self, row: tuple) -> Optional[bool]:
        return self.apply(
            self.operand.eval(row), self.low.eval(row), self.high.eval(row)
        )

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand, self.low, self.high)


class BoundIn(BoundExpr):
    def __init__(
        self, operand: BoundExpr, options: list[BoundExpr],
        negated: bool = False,
    ):
        inner = ", ".join(option.name for option in options)
        super().__init__(BOOLEAN, f"({operand.name} IN ({inner}))")
        self.operand = operand
        self.options = list(options)
        self.negated = negated
        # Fast path: constant option list becomes one set lookup.
        if all(isinstance(option, BoundLiteral) for option in options):
            self._constant_set: Optional[frozenset] = frozenset(
                option.value for option in options
            )
        else:
            self._constant_set = None

    def _result(self, found: bool, null_option: bool) -> Optional[bool]:
        # No match against a list holding NULL is unknown, not FALSE.
        if not found and null_option:
            return None
        return found != self.negated

    def apply(self, value: Any) -> Optional[bool]:
        """The constant-option form, a function of the operand alone."""
        if value is None:
            return None
        return self._result(
            value in self._constant_set, None in self._constant_set
        )

    def eval(self, row: tuple) -> Optional[bool]:
        value = self.operand.eval(row)
        if self._constant_set is not None:
            return self.apply(value)
        if value is None:
            return None
        null_option = False
        for option in self.options:
            candidate = option.eval(row)
            if candidate is None:
                null_option = True
            elif candidate == value:
                return self._result(True, null_option)
        return self._result(False, null_option)

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand, *self.options)


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern (%, _) to an anchored regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


class BoundLike(BoundExpr):
    def __init__(
        self, operand: BoundExpr, pattern: BoundExpr, negated: bool = False
    ):
        super().__init__(BOOLEAN, f"({operand.name} LIKE {pattern.name})")
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        if isinstance(pattern, BoundLiteral) and isinstance(pattern.value, str):
            self._compiled: Optional[re.Pattern] = like_to_regex(pattern.value)
        else:
            self._compiled = None

    def apply(self, value: Any) -> Optional[bool]:
        """The constant-pattern form, a function of the operand alone."""
        if value is None:
            return None
        result = self._compiled.match(value) is not None
        return not result if self.negated else result

    def eval(self, row: tuple) -> Optional[bool]:
        value = self.operand.eval(row)
        if self._compiled is not None:
            return self.apply(value)
        if value is None:
            return None
        pattern = self.pattern.eval(row)
        if pattern is None:
            return None
        result = like_to_regex(pattern).match(value) is not None
        return not result if self.negated else result

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand, self.pattern)


class BoundIsNull(BoundExpr):
    def __init__(self, operand: BoundExpr, negated: bool = False):
        suffix = "IS NOT NULL" if negated else "IS NULL"
        super().__init__(BOOLEAN, f"({operand.name} {suffix})")
        self.operand = operand
        self.negated = negated

    def apply(self, value: Any) -> bool:
        result = value is None
        return not result if self.negated else result

    def eval(self, row: tuple) -> bool:
        return self.apply(self.operand.eval(row))

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand,)


class BoundCase(BoundExpr):
    def __init__(
        self,
        branches: list[tuple[BoundExpr, BoundExpr]],
        otherwise: Optional[BoundExpr],
        data_type: DataType,
    ):
        super().__init__(data_type, "CASE")
        self.branches = list(branches)
        self.otherwise = otherwise

    def eval(self, row: tuple) -> Any:
        for condition, value in self.branches:
            if condition.eval(row) is True:
                return value.eval(row)
        if self.otherwise is not None:
            return self.otherwise.eval(row)
        return None

    def children(self) -> Sequence[BoundExpr]:
        kids: list[BoundExpr] = []
        for condition, value in self.branches:
            kids.extend((condition, value))
        if self.otherwise is not None:
            kids.append(self.otherwise)
        return kids


class BoundCast(BoundExpr):
    def __init__(self, operand: BoundExpr, target: DataType,
                 cast_fn: Callable[[Any], Any]):
        super().__init__(target, f"CAST({operand.name} AS {target})")
        self.operand = operand
        self._cast_fn = cast_fn

    def apply(self, value: Any) -> Any:
        if value is None:
            return None
        return self._cast_fn(value)

    def eval(self, row: tuple) -> Any:
        return self.apply(self.operand.eval(row))

    def children(self) -> Sequence[BoundExpr]:
        return (self.operand,)


class BoundScalarCall(BoundExpr):
    """A builtin scalar function or user-defined function call."""

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        args: list[BoundExpr],
        data_type: DataType,
        null_propagating: bool = True,
    ):
        arg_names = ", ".join(arg.name for arg in args)
        super().__init__(data_type, f"{name}({arg_names})")
        self.function_name = name
        self._fn = fn
        self.args = list(args)
        self._null_propagating = null_propagating

    def apply(self, *values: Any) -> Any:
        if self._null_propagating and None in values:
            return None
        return self._fn(*values)

    def eval(self, row: tuple) -> Any:
        return self.apply(*[arg.eval(row) for arg in self.args])

    def children(self) -> Sequence[BoundExpr]:
        return self.args


def expr_signature(expr: BoundExpr) -> tuple:
    """A structural identity for a bound expression.

    Two expressions with equal signatures compute the same value over the
    same input row, regardless of how they were spelled (``sourceIP`` vs
    ``UV.sourceIP``).  Used to match SELECT expressions against GROUP BY
    expressions semantically.
    """
    extra: tuple = ()
    if isinstance(expr, BoundColumn):
        return ("col", expr.index)
    if isinstance(expr, BoundLiteral):
        return ("lit", expr.value)
    if isinstance(expr, (BoundComparison, BoundArithmetic)):
        extra = (expr.op,)
    elif isinstance(expr, BoundScalarCall):
        extra = (expr.function_name,)
    elif isinstance(expr, (BoundBetween, BoundIn, BoundLike, BoundIsNull)):
        extra = (expr.negated,)
    elif isinstance(expr, BoundCast):
        extra = (expr.data_type.name,)
    children = tuple(expr_signature(child) for child in expr.children())
    return (type(expr).__name__, extra, children)


#: Where a node keeps what ``children()`` lists: one child each, or a
#: list of them; a CASE keeps (condition, value) pairs in ``branches``.
_CHILD_ATTRIBUTES = (
    "left", "right", "operand", "low", "high", "pattern", "otherwise",
)
_CHILD_LISTS = ("args", "options")


def map_children(
    expr: BoundExpr, fn: Callable[[BoundExpr], BoundExpr]
) -> BoundExpr:
    """``expr`` with ``fn`` applied to each of its children: ``expr``
    itself where ``fn`` returns every child unchanged, else a shallow
    copy holding the new children (the rest shared with ``expr``, which
    stays as it was)."""
    changed: dict[str, Any] = {}
    for attribute in _CHILD_ATTRIBUTES:
        child = getattr(expr, attribute, None)
        if isinstance(child, BoundExpr):
            mapped = fn(child)
            if mapped is not child:
                changed[attribute] = mapped
    for attribute in _CHILD_LISTS:
        children = getattr(expr, attribute, None)
        if children is not None:
            mapped = [fn(child) for child in children]
            if any(map(operator.is_not, mapped, children)):
                changed[attribute] = mapped
    branches = getattr(expr, "branches", None)
    if branches is not None:
        mapped = [(fn(condition), fn(value)) for condition, value in branches]
        if any(map(operator.is_not, _flat(mapped), _flat(branches))):
            changed["branches"] = mapped
    if not changed:
        return expr
    clone = copy.copy(expr)
    vars(clone).update(changed)
    return clone


def _flat(pairs: list[tuple[BoundExpr, BoundExpr]]) -> list[BoundExpr]:
    return [node for pair in pairs for node in pair]


def rewrite_columns(expr: BoundExpr, mapping: dict[int, int]) -> BoundExpr:
    """``expr`` with column ordinals remapped.

    Used by pushdown rules that move a predicate across a projection or to
    one side of a join: the predicate's input layout changes, so its
    column indices must be rebased.  Only the nodes on a path to a column
    whose ordinal changes are rebuilt (:func:`map_children`); every other
    subtree is shared with ``expr``.
    """
    if isinstance(expr, BoundColumn):
        index = mapping[expr.index]
        if index == expr.index:
            return expr
        clone = copy.copy(expr)
        clone.index = index
        return clone
    return map_children(expr, lambda child: rewrite_columns(child, mapping))
