"""Expression compilation: bound expression trees -> batch kernels.

Section 5 of the paper: "for certain queries, when data is served out of
the memory store the majority of the CPU cycles are wasted in interpreting
these evaluators.  We are working on a compiler to transform these
expression evaluators into JVM bytecode."  This module is that compiler
for the Python engine: a :class:`~repro.sql.expressions.BoundExpr` tree
becomes one closure per *operator* that maps a ColumnBatch to a Vector, so
the tree is walked once per batch instead of once per row.

Numeric, DATE and TIMESTAMP columns stay numpy arrays end to end (NULLs
as validity masks, three-valued logic as true/false mask pairs).  A
``_*_kernel`` below is
only the *array form* of its node: it answers None where the operands
have none (Python lists of mixed values, a NULL literal, an ARRAY column)
and states no scalar semantics of its own.  The scalar rule of every node
is ``BoundExpr.apply`` in ``repro.sql.expressions`` and nowhere else;
one function, :func:`_kernel_node`, folds a node over constants through
it, maps it over the operand values where there is no array form, and
runs either form on the dictionary of a coded operand instead of on the
rows.  Subtrees whose value is not a function of their children's values
(CASE, correlated IN, dynamic LIKE) are kernels too — ``expr.eval``
mapped over the referenced columns — so compilation is total; the caller
only learns *how many* subtrees call Python per row.

Parity contract: every kernel reproduces the corresponding BoundExpr.eval
semantics exactly (NULL propagation, division by zero -> NULL, Kleene
AND/OR, BETWEEN's non-decomposable NULL handling).  The kernels are the
only way a SQL operator evaluates an expression; the reference they are
held to is stdlib ``sqlite3`` (``tests/oracle.py``), which shares no code
with the engine.
"""

from __future__ import annotations

from contextlib import suppress
from datetime import date, datetime
from functools import partial
from itertools import repeat, starmap
from typing import Any, Callable, Optional

import numpy as np

from repro.columnar.batch import CodedVector, ColumnBatch, Vector
from repro.datatypes import DAYS, datetime64_array, time_number
from repro.sql.expressions import (
    BoundAnd,
    BoundArithmetic,
    BoundBetween,
    BoundCast,
    BoundColumn,
    BoundComparison,
    BoundExpr,
    BoundIn,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundNegate,
    BoundNot,
    BoundOr,
    BoundScalarCall,
)
from repro.sql.functions import builtin


class _Const:
    """A scalar operand known at compile time (a literal or a folded
    sub-result); as a compiled node it answers itself for every batch."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __call__(self, batch: ColumnBatch) -> "_Const":
        return self


class _VectorCompileState:
    """What one compilation shares: the count of subtrees that call
    Python once per row (interpreted subtrees and UDF calls) and the
    metrics registry the dictionary-domain evaluations are counted in."""

    __slots__ = ("interpreted", "metrics")

    def __init__(self, metrics=None) -> None:
        self.interpreted = 0
        self.metrics = metrics


def _values_list(operand, n: int):
    if isinstance(operand, _Const):
        return repeat(operand.value, n)
    return operand.to_python_list()


def _numeric_operand(operand):
    """(data, valid) with data an upcast ndarray or a Python scalar;
    None when the operand is not numpy-numeric."""
    if isinstance(operand, _Const):
        value = operand.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return value, None
    data = operand.data
    if not isinstance(data, np.ndarray):
        return None
    if data.dtype == np.bool_ or not np.issubdtype(data.dtype, np.number):
        return None
    if np.issubdtype(data.dtype, np.integer) and data.dtype != np.int64:
        data = data.astype(np.int64)
    return data, operand.valid


def _temporal_operand(operand):
    """(data, valid) with data a datetime64 array or scalar; None when
    the operand is no DATE / TIMESTAMP array or exact literal."""
    if isinstance(operand, _Const):
        value = operand.value
        array = datetime64_array([value], type(value))
        return None if array is None else (array[0], None)
    data = operand.data
    if isinstance(data, np.ndarray) and data.dtype.kind == "M":
        return data, operand.valid
    return None


def _ordered_operands(*operands) -> Optional[list]:
    """The operands as (data, valid) pairs numpy compares exactly as
    Python compares their values: all numeric, or all datetime64 of one
    unit (a date equals no datetime and orders with none); else None."""
    pairs = [_numeric_operand(operand) for operand in operands]
    if None in pairs:  # (a tuple equals no None: no array is compared)
        pairs = [_temporal_operand(operand) for operand in operands]
        if None in pairs or len({data.dtype for data, __ in pairs}) > 1:
            return None
    return pairs


def _combine_valid(*valids) -> Optional[np.ndarray]:
    out = None
    for valid in valids:
        if valid is None:
            continue
        out = valid if out is None else (out & valid)
    return out


def _bool_masks(operand, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-valued truth of a boolean operand as (is_true, is_false)."""
    if isinstance(operand, _Const):
        true = np.full(n, operand.value is True)
        false = np.full(n, operand.value is False)
        return true, false
    data = operand.data
    if isinstance(data, np.ndarray) and data.dtype == np.bool_:
        if operand.valid is None:
            return data, ~data
        return data & operand.valid, ~data & operand.valid
    values = _values_list(operand, n)
    true = np.fromiter((v is True for v in values), dtype=bool, count=n)
    false = np.fromiter((v is False for v in values), dtype=bool, count=n)
    return true, false


def _arith_kernel(op: str, left, right, n: int):
    a = _numeric_operand(left)
    b = _numeric_operand(right)
    if a is None or b is None:
        return None
    (ad, av), (bd, bv) = a, b
    valid = _combine_valid(av, bv)
    if op in ("/", "%") and np.any(zero := bd == 0):
        if not isinstance(bd, np.ndarray):
            return None  # a literal zero divisor: NULL in every row
        nonzero = ~zero
        valid = nonzero if valid is None else (valid & nonzero)
        bd = np.where(zero, 1, bd)
    with np.errstate(all="ignore"):
        if op == "/":
            vals = np.true_divide(ad, bd)
        elif op == "%":
            vals = np.fmod(ad, bd)
        elif op == "+":
            vals = ad + bd
        elif op == "-":
            vals = ad - bd
        else:
            vals = ad * bd
    return Vector(vals, valid)


_NUMPY_CMP = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def _object_compare(operand, n: int, compare):
    """``compare(values)`` over the non-NULL values of a list-backed
    operand (STRING columns, nullable primitives) as one object-array
    operation: a boolean Vector that is NULL where the operand is.  None
    for array-backed operands and for ARRAY columns, whose rows would
    become a 2-d array; those keep their own paths.
    """
    data = operand.data
    if isinstance(data, np.ndarray):
        return None
    array = np.asarray(data, dtype=object)
    if array.shape != (n,):
        return None
    valid = array != None  # noqa: E711 - elementwise, not identity
    out = np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore"):  # a NaN in a nullable DOUBLE
        out[valid] = compare(array[valid])
    return Vector(out, valid)


def _is_scalar(operand) -> bool:
    """A constant an object array can be compared with elementwise: not
    NULL, and not an ARRAY value, which numpy would broadcast."""
    return isinstance(operand, _Const) and not isinstance(
        operand.value, (list, type(None))
    )


def _compare_kernel(op: str, left, right, n: int):
    compare = _NUMPY_CMP[op]
    pairs = _ordered_operands(left, right)
    if pairs is not None:
        (ad, av), (bd, bv) = pairs
        return Vector(compare(ad, bd), _combine_valid(av, bv))
    if _is_scalar(right):
        return _object_compare(
            left, n, lambda values: compare(values, right.value)
        )
    if _is_scalar(left):
        return _object_compare(
            right, n, lambda values: compare(left.value, values)
        )
    return None


def _between_kernel(negated: bool, value, low, high, n: int):
    pairs = _ordered_operands(value, low, high)
    if pairs is not None:
        (vd, vv), (lod, lov), (hid, hiv) = pairs
        vals = (lod <= vd) & (vd <= hid)
        if negated:
            vals = ~vals
        return Vector(vals, _combine_valid(vv, lov, hiv))
    if _is_scalar(low) and _is_scalar(high):

        def within(values: np.ndarray) -> np.ndarray:
            vals = (low.value <= values) & (values <= high.value)
            return ~vals if negated else vals

        return _object_compare(value, n, within)
    return None


def _in_kernel(constant_set: frozenset, negated: bool, operand, n: int):
    numeric = _numeric_operand(operand)
    if numeric is not None:
        data, valid = numeric
        options = [
            option for option in constant_set
            if isinstance(option, (int, float))
            and not isinstance(option, bool)
        ]
    else:
        temporal = _temporal_operand(operand)
        if temporal is None:
            return None
        data, valid = temporal
        # A date equals only dates, a datetime only datetimes; one with
        # a zone (TypeError) equals no naive one.
        timed = data.dtype != DAYS
        data, options = data.view(np.int64), []
        for option in constant_set:
            if isinstance(option, date) and isinstance(option, datetime) == timed:
                with suppress(TypeError):
                    options.append(time_number(option))
    vals = np.isin(data, options)
    if None in constant_set:  # no match against a NULL option: NULL
        valid = vals if valid is None else (valid & vals)
    if negated:
        vals = ~vals
    return Vector(vals, valid)


def _is_null_kernel(negated: bool, operand, n: int):
    data = operand.data
    if isinstance(data, np.ndarray):
        if operand.valid is None:
            vals = np.zeros(n, dtype=bool)
        else:
            vals = ~operand.valid
    else:
        vals = np.fromiter(
            (v is None for v in data), dtype=bool, count=n
        )
    if negated:
        vals = ~vals
    return Vector(vals)


def _and_kernel(left, right, n: int):
    lt, lf = _bool_masks(left, n)
    rt, rf = _bool_masks(right, n)
    true = lt & rt
    return Vector(true, true | lf | rf)


def _or_kernel(left, right, n: int):
    lt, lf = _bool_masks(left, n)
    rt, rf = _bool_masks(right, n)
    true = lt | rt
    return Vector(true, true | (lf & rf))


def _not_kernel(operand, n: int):
    true, false = _bool_masks(operand, n)
    return Vector(false, true | false)


def _negate_kernel(operand, n: int):
    numeric = _numeric_operand(operand)
    if numeric is None:
        return None
    data, valid = numeric
    return Vector(-data, valid)


def _is_udf_call(expr: BoundExpr) -> bool:
    if not isinstance(expr, BoundScalarCall):
        return False
    spec = builtin(expr.function_name)
    return spec is None or spec.fn is not expr._fn


def _calls_udf(expr: BoundExpr) -> bool:
    return _is_udf_call(expr) or any(map(_calls_udf, expr.children()))


def _shared_codes(operands) -> Optional[CodedVector]:
    """The coded operand whose codes every vector operand shares (one
    column among constants, or several results computed from it)."""
    source = None
    for operand in operands:
        if isinstance(operand, _Const):
            continue
        if not isinstance(operand, CodedVector):
            return None
        if source is None:
            source = operand
        elif operand.codes is not source.codes:
            return None
    return source


def _kernel_node(
    kernel, apply, children: list, state: _VectorCompileState,
    pure: bool = True,
):
    """The node over its children's results: ``kernel(*operands, n)``, the
    array form, and where that answers None (or the node has none) its
    scalar rule ``apply`` mapped over the operand values — the only place
    the rule is called outside ``eval``.  ``apply`` is None for a kernel
    that is total (AND/OR masks, an interpreted subtree).

    A ``pure`` node folds to a constant, here at compile time, when every
    operand is one, and runs in the dictionary domain when it can: if the
    vector operands are coded over one codes array and the dictionary is
    shorter than the batch, the same evaluation takes the dictionary
    entries and the result shares the codes.  ``pure`` is False for a UDF,
    which nothing declares deterministic: it sees every row, constant
    arguments or not.

    A fold evaluates the node though there may be no row to evaluate it
    for, and the dictionary may hold entries no row of the batch has (an
    earlier filter dropped them) on which a built-in can fail where the
    rows would not; any failure there hands the batch to the evaluation
    over the rows, which decides.
    """
    metrics = state.metrics
    if apply is not None and all(isinstance(c, _Const) for c in children):
        kernel = None  # no vector among the operands
        if pure:
            try:
                return _Const(apply(*[child.value for child in children]))
            except Exception:  # noqa: BLE001 - see docstring
                pass

    def evaluate(*operands):
        result = None if kernel is None else kernel(*operands)
        if result is None:
            *values, n = operands
            rows = zip(*[_values_list(value, n) for value in values])
            if not values:
                rows = repeat((), n)
            result = Vector(list(starmap(apply, rows)))
        return result

    def run(batch: ColumnBatch):
        operands = [child(batch) for child in children]
        n = batch.num_rows
        source = _shared_codes(operands) if pure else None
        if source is None or len(source.dictionary) >= n:
            return evaluate(*operands, n)
        k = len(source.dictionary)
        entries = [
            operand if isinstance(operand, _Const) else operand.dictionary
            for operand in operands
        ]
        try:
            result = evaluate(*entries, k)
        except Exception:  # noqa: BLE001 - see docstring
            return evaluate(*operands, n)
        if metrics is not None:
            metrics.inc("batch.kernel.dictionary")
            metrics.inc("batch.dictionary.values", k)
            metrics.inc("batch.dictionary.rows", n)
        return CodedVector(source.codes, result)

    return run


def _interpret_subtree(expr: BoundExpr, state: _VectorCompileState):
    """Whole-subtree fallback: ``expr.eval`` per row of the referenced
    columns (per dictionary entry when that is one coded column and the
    subtree calls no UDF) — exactly the row semantics by construction.
    """
    state.interpreted += 1
    references = sorted(expr.references())
    evaluate = expr.eval

    def kernel(*operands):
        *columns, n = operands
        if not columns:
            return Vector(list(map(evaluate, repeat((), n))))
        # Rows as wide as the highest ordinal read, None elsewhere.
        slots: list = [repeat(None)] * (references[-1] + 1)
        for index, column in zip(references, columns):
            slots[index] = column.to_python_list()
        return Vector(list(map(evaluate, zip(*slots))))

    children = [
        partial(ColumnBatch.vector, ordinal=index) for index in references
    ]
    return _kernel_node(kernel, None, children, state, not _calls_udf(expr))


def _vector_node(expr: BoundExpr, state: _VectorCompileState):
    """Compile one expression node to ``batch -> Vector|_Const`` (a
    ``_Const`` itself when the node is constant)."""
    if isinstance(expr, BoundLiteral):
        return _Const(expr.value)
    if isinstance(expr, BoundColumn):
        return partial(ColumnBatch.vector, ordinal=expr.index)
    # ``kernel`` stays None where the node has no array form (static LIKE,
    # CAST, scalar calls): ``apply`` per value.
    operands, kernel, pure = expr.children(), None, True
    if isinstance(expr, BoundArithmetic):
        kernel = partial(_arith_kernel, expr.op)
    elif isinstance(expr, BoundComparison):
        kernel = partial(_compare_kernel, expr.op)
    elif isinstance(expr, BoundAnd):
        kernel = _and_kernel
    elif isinstance(expr, BoundOr):
        kernel = _or_kernel
    elif isinstance(expr, BoundNot):
        kernel = _not_kernel
    elif isinstance(expr, BoundNegate):
        kernel = _negate_kernel
    elif isinstance(expr, BoundBetween):
        kernel = partial(_between_kernel, expr.negated)
    elif isinstance(expr, BoundIn) and expr._constant_set is not None:
        kernel = partial(_in_kernel, expr._constant_set, expr.negated)
        operands = (expr.operand,)
    elif isinstance(expr, BoundIsNull):
        kernel = partial(_is_null_kernel, expr.negated)
    elif isinstance(expr, BoundLike) and expr._compiled is not None:
        operands = (expr.operand,)
    elif isinstance(expr, BoundScalarCall):
        pure = not _is_udf_call(expr)
        if not pure:
            state.interpreted += 1
    elif not isinstance(expr, BoundCast):
        # CASE, correlated IN, dynamic LIKE.
        return _interpret_subtree(expr, state)
    children = [_vector_node(operand, state) for operand in operands]
    return _kernel_node(kernel, expr.apply, children, state, pure)


def _broadcast(result, n: int) -> Vector:
    if isinstance(result, _Const):
        return Vector([result.value] * n)
    return result


def compile_vector_expression(
    expr: BoundExpr, metrics=None
) -> tuple[Callable[[ColumnBatch], Vector], int]:
    """Compile ``expr`` to a batch kernel.

    Returns ``(kernel, interpreted)``: the kernel maps a ColumnBatch to a
    Vector of ``batch.num_rows`` results; ``interpreted`` counts subtrees
    that call Python once per row (``expr.eval`` fallbacks and UDF calls)
    rather than running a kernel.  Compilation is total — every
    expression gets a kernel.  ``metrics`` (a ``MetricsRegistry``) counts
    the dictionary-domain evaluations.
    """
    state = _VectorCompileState(metrics)
    node = _vector_node(expr, state)
    return (lambda batch: _broadcast(node(batch), batch.num_rows),
            state.interpreted)


def compile_vector_predicate(
    expr: BoundExpr, metrics=None
) -> tuple[Callable[[ColumnBatch], np.ndarray], int]:
    """Compile a predicate to a kernel producing a keep-mask (TRUE only;
    NULL and FALSE both drop the row)."""
    state = _VectorCompileState(metrics)
    node = _vector_node(expr, state)

    def predicate(batch: ColumnBatch) -> np.ndarray:
        true, _ = _bool_masks(node(batch), batch.num_rows)
        return true

    return predicate, state.interpreted


def compile_vector_projection(
    expressions: list[BoundExpr], metrics=None
) -> tuple[list, int]:
    """Compile a SELECT list to per-output plans.

    Each element is ``("col", ordinal)`` for a bare column reference —
    the pipeline moves the (possibly still encoded) entry without
    decoding — or ``("expr", kernel)`` for a computed output.
    """
    state = _VectorCompileState(metrics)
    plans: list = []
    for expr in expressions:
        if isinstance(expr, BoundColumn):
            plans.append(("col", expr.index))
        else:
            node = _vector_node(expr, state)
            plans.append(
                ("expr",
                 (lambda kernel: lambda batch: _broadcast(
                     kernel(batch), batch.num_rows))(node))
            )
    return plans, state.interpreted
