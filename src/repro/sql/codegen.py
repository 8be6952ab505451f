"""Expression compilation: bound expression trees -> Python bytecode.

Section 5 of the paper: "for certain queries, when data is served out of
the memory store the majority of the CPU cycles are wasted in interpreting
these evaluators.  We are working on a compiler to transform these
expression evaluators into JVM bytecode."  This module implements that
compiler for the Python engine: a :class:`~repro.sql.expressions.BoundExpr`
tree is translated to a Python source expression, compiled once with
``compile()``, and evaluated per row with zero tree-walking.

Semantics are identical to interpreted evaluation (SQL three-valued logic
included); the test suite cross-checks compiled against interpreted output
on every expression shape, and the planner falls back to interpretation
for any expression the compiler does not cover.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sql.expressions import (
    BoundAnd,
    BoundArithmetic,
    BoundBetween,
    BoundCase,
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
    like_to_regex,
)


class _Emitter:
    """Builds the source expression plus the closure environment."""

    def __init__(self) -> None:
        self.env: dict[str, Any] = {}
        self._counter = 0

    def bind_constant(self, value: Any) -> str:
        """Install a constant in the environment, returning its name."""
        name = f"_c{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    def temp(self) -> str:
        """A fresh temporary name for walrus-bound sub-results."""
        name = f"_t{self._counter}"
        self._counter += 1
        return name




def _compile_node(expr: BoundExpr, emitter: _Emitter) -> str:
    if isinstance(expr, BoundLiteral):
        if expr.value is None or isinstance(expr.value, (int, float, str, bool)):
            return repr(expr.value)
        return emitter.bind_constant(expr.value)

    if isinstance(expr, BoundColumn):
        return f"_row[{expr.index}]"

    if isinstance(expr, BoundArithmetic):
        left = _compile_node(expr.left, emitter)
        right = _compile_node(expr.right, emitter)
        a, b = emitter.temp(), emitter.temp()
        if expr.op in ("/", "%"):
            op = "/" if expr.op == "/" else "%"
            return (
                f"(None if ({a} := {left}) is None "
                f"or ({b} := {right}) is None or {b} == 0 "
                f"else {a} {op} {b})"
            )
        return (
            f"(None if ({a} := {left}) is None "
            f"or ({b} := {right}) is None else {a} {expr.op} {b})"
        )

    if isinstance(expr, BoundComparison):
        left = _compile_node(expr.left, emitter)
        right = _compile_node(expr.right, emitter)
        a, b = emitter.temp(), emitter.temp()
        op = {"=": "==", "<>": "!="}.get(expr.op, expr.op)
        return (
            f"(None if ({a} := {left}) is None "
            f"or ({b} := {right}) is None else {a} {op} {b})"
        )

    if isinstance(expr, BoundAnd):
        left = _compile_node(expr.left, emitter)
        right = _compile_node(expr.right, emitter)
        a, b = emitter.temp(), emitter.temp()
        # SQL Kleene AND with short-circuit: the right side is only
        # evaluated when the left is not False.
        return (
            f"(False if ({a} := {left}) is False else "
            f"(False if ({b} := {right}) is False else "
            f"(None if ({a} is None or {b} is None) else True)))"
        )

    if isinstance(expr, BoundOr):
        left = _compile_node(expr.left, emitter)
        right = _compile_node(expr.right, emitter)
        a, b = emitter.temp(), emitter.temp()
        return (
            f"(True if ({a} := {left}) is True else "
            f"(True if ({b} := {right}) is True else "
            f"(None if ({a} is None or {b} is None) else False)))"
        )

    if isinstance(expr, BoundNot):
        operand = _compile_node(expr.operand, emitter)
        v = emitter.temp()
        return f"(None if ({v} := {operand}) is None else (not {v}))"

    if isinstance(expr, BoundNegate):
        operand = _compile_node(expr.operand, emitter)
        v = emitter.temp()
        return f"(None if ({v} := {operand}) is None else -{v})"

    if isinstance(expr, BoundBetween):
        operand = _compile_node(expr.operand, emitter)
        low = _compile_node(expr.low, emitter)
        high = _compile_node(expr.high, emitter)
        v, lo, hi = emitter.temp(), emitter.temp(), emitter.temp()
        core = (
            f"(None if ({v} := {operand}) is None "
            f"or ({lo} := {low}) is None or ({hi} := {high}) is None "
            f"else {'not ' if expr.negated else ''}({lo} <= {v} <= {hi}))"
        )
        return core

    if isinstance(expr, BoundIn):
        operand = _compile_node(expr.operand, emitter)
        v = emitter.temp()
        maybe_not = "not " if expr.negated else ""
        if expr._constant_set is not None:
            constants = emitter.bind_constant(expr._constant_set)
            return (
                f"(None if ({v} := {operand}) is None "
                f"else {maybe_not}({v} in {constants}))"
            )
        options = [_compile_node(option, emitter) for option in expr.options]
        options_src = "(" + ", ".join(options) + ("," if options else "") + ")"
        return (
            f"(None if ({v} := {operand}) is None "
            f"else {maybe_not}({v} in {options_src}))"
        )

    if isinstance(expr, BoundLike):
        operand = _compile_node(expr.operand, emitter)
        v = emitter.temp()
        maybe_not = "not " if expr.negated else ""
        if expr._compiled is not None:
            regex = emitter.bind_constant(expr._compiled.match)
            return (
                f"(None if ({v} := {operand}) is None "
                f"else {maybe_not}({regex}({v}) is not None))"
            )
        pattern = _compile_node(expr.pattern, emitter)
        builder = emitter.bind_constant(like_to_regex)
        p = emitter.temp()
        return (
            f"(None if ({v} := {operand}) is None "
            f"or ({p} := {pattern}) is None "
            f"else {maybe_not}({builder}({p}).match({v}) is not None))"
        )

    if isinstance(expr, BoundIsNull):
        operand = _compile_node(expr.operand, emitter)
        if expr.negated:
            return f"({operand} is not None)"
        return f"({operand} is None)"

    if isinstance(expr, BoundCase):
        source = "None" if expr.otherwise is None else _compile_node(
            expr.otherwise, emitter
        )
        # Build the chain from the last branch backwards so the first
        # matching WHEN wins.
        for condition, value in reversed(expr.branches):
            condition_src = _compile_node(condition, emitter)
            value_src = _compile_node(value, emitter)
            source = (
                f"({value_src} if ({condition_src}) is True else {source})"
            )
        return source

    if isinstance(expr, BoundCast):
        operand = _compile_node(expr.operand, emitter)
        cast_fn = emitter.bind_constant(expr._cast_fn)
        v = emitter.temp()
        return (
            f"(None if ({v} := {operand}) is None else {cast_fn}({v}))"
        )

    if isinstance(expr, BoundScalarCall):
        args = [_compile_node(arg, emitter) for arg in expr.args]
        fn = emitter.bind_constant(expr._fn)
        args_src = ", ".join(args)
        if expr._null_propagating:
            helper = emitter.bind_constant(_call_null_propagating)
            tuple_src = "(" + args_src + ("," if args else "") + ")"
            return f"{helper}({fn}, {tuple_src})"
        return f"{fn}({args_src})"

    raise NotImplementedError(
        f"no codegen for {type(expr).__name__}"
    )


# --- environment helpers (plain functions: picklable, no tree walking) ----



def _call_null_propagating(fn, args):
    if any(arg is None for arg in args):
        return None
    return fn(*args)


def compile_expression(expr: BoundExpr) -> Optional[Callable[[tuple], Any]]:
    """Compile one bound expression to a Python function of the row.

    Returns None when the tree contains a node the compiler does not
    handle (the caller falls back to interpreted ``expr.eval``).
    """
    emitter = _Emitter()
    try:
        source = _compile_node(expr, emitter)
    except NotImplementedError:
        return None
    fn_source = "def _compiled(_row):\n    return " + source
    namespace: dict[str, Any] = dict(emitter.env)
    exec(  # noqa: S102 - generated from a fixed, audited template
        compile(fn_source, "<codegen:expr>", "exec"), namespace
    )
    return namespace["_compiled"]


def compile_projection(
    expressions: list[BoundExpr],
) -> Optional[Callable[[tuple], tuple]]:
    """Compile a whole SELECT list into one tuple-building function."""
    emitter = _Emitter()
    try:
        parts = [_compile_node(expr, emitter) for expr in expressions]
    except NotImplementedError:
        return None
    inner = ", ".join(parts) + ("," if len(parts) == 1 else "")
    fn_source = f"def _compiled(_row):\n    return ({inner})"
    namespace: dict[str, Any] = dict(emitter.env)
    exec(  # noqa: S102
        compile(fn_source, "<codegen:projection>", "exec"), namespace
    )
    return namespace["_compiled"]


def compile_predicate(expr: BoundExpr) -> Optional[Callable[[tuple], bool]]:
    """Compile a WHERE predicate to a row -> bool function (TRUE only)."""
    compiled = compile_expression(expr)
    if compiled is None:
        return None

    def predicate(row: tuple) -> bool:
        return compiled(row) is True

    return predicate


# ---------------------------------------------------------------------------
# Vector kernels (batch-at-a-time compilation)
# ---------------------------------------------------------------------------
#
# The row compiler above turns an expression tree into one Python function
# per *row*; the vector compiler below turns the same tree into one closure
# per *operator* that maps a ColumnBatch to a Vector.  Numeric columns stay
# numpy arrays end to end (NULLs as validity masks, three-valued logic as
# true/false mask pairs).  Every node is a kernel ``(*operands, n)`` over
# its children's results, and one rule (:func:`_kernel_node`) runs it on
# the dictionary of a coded operand instead of on the rows.  Subtrees with
# no kernel of their own (CASE, correlated IN, dynamic LIKE) are kernels
# too — ``expr.eval`` mapped over the referenced columns — so compilation
# is total; the caller only learns *how many* subtrees call Python per row.
#
# Parity contract: every kernel reproduces the corresponding BoundExpr.eval
# semantics exactly (NULL propagation, division by zero -> NULL, Kleene
# AND/OR, BETWEEN's non-decomposable NULL handling).

from functools import partial  # noqa: E402
from itertools import repeat  # noqa: E402

import numpy as np  # noqa: E402

from repro.columnar.batch import CodedVector, ColumnBatch, Vector  # noqa: E402
from repro.sql.functions import builtin  # noqa: E402


class _Const:
    """A compile-time scalar operand (literal or folded sub-result)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class _VectorCompileState:
    """What one compilation shares: the count of subtrees that call
    Python once per row (interpreted subtrees and UDF calls), and the
    metrics registry the dictionary-domain evaluations are counted in."""

    __slots__ = ("interpreted", "metrics")

    def __init__(self, metrics=None) -> None:
        self.interpreted = 0
        self.metrics = metrics


def _values_list(operand, n: int) -> list:
    if isinstance(operand, _Const):
        return [operand.value] * n
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


def _combine_valid(*valids) -> Optional[np.ndarray]:
    out = None
    for valid in valids:
        if valid is None:
            continue
        out = valid if out is None else (out & valid)
    return out


def _all_null(n: int) -> Vector:
    return Vector(np.zeros(n, dtype=np.float64), np.zeros(n, dtype=bool))


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


def _arith_kernel(op: str, fn, left, right, n: int):
    if isinstance(left, _Const) and isinstance(right, _Const):
        a, b = left.value, right.value
        if a is None or b is None:
            return _Const(None)
        if op in ("/", "%") and b == 0:
            return _Const(None)
        return _Const(a / b if op == "/" else fn(a, b))
    if (isinstance(left, _Const) and left.value is None) or (
        isinstance(right, _Const) and right.value is None
    ):
        return _all_null(n)
    if (
        op in ("/", "%")
        and isinstance(right, _Const)
        and right.value == 0
    ):
        return _all_null(n)
    a = _numeric_operand(left)
    b = _numeric_operand(right)
    if a is not None and b is not None:
        (ad, av), (bd, bv) = a, b
        valid = _combine_valid(av, bv)
        if op in ("/", "%") and isinstance(bd, np.ndarray):
            zero = bd == 0
            if np.any(zero):
                nonzero = ~zero
                valid = nonzero if valid is None else (valid & nonzero)
                bd = np.where(zero, 1, bd)
        with np.errstate(all="ignore"):
            if op == "/":
                vals = np.true_divide(ad, bd)
            elif op == "%":
                vals = np.mod(ad, bd)
            elif op == "+":
                vals = ad + bd
            elif op == "-":
                vals = ad - bd
            else:
                vals = ad * bd
        return Vector(vals, valid)
    out = []
    for x, y in zip(_values_list(left, n), _values_list(right, n)):
        if x is None or y is None:
            out.append(None)
        elif op in ("/", "%") and y == 0:
            out.append(None)
        elif op == "/":
            out.append(x / y)
        else:
            out.append(fn(x, y))
    return Vector(out)


_NUMPY_CMP = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def _object_compare(operand, n: int, compare):
    """``compare(values)`` over the non-NULL values of a list-backed
    operand (STRING/DATE columns, nullable primitives) as one object-array
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


def _compare_kernel(op: str, fn, left, right, n: int):
    if isinstance(left, _Const) and isinstance(right, _Const):
        a, b = left.value, right.value
        if a is None or b is None:
            return _Const(None)
        return _Const(fn(a, b))
    if (isinstance(left, _Const) and left.value is None) or (
        isinstance(right, _Const) and right.value is None
    ):
        return Vector(np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    a = _numeric_operand(left)
    b = _numeric_operand(right)
    if a is not None and b is not None:
        (ad, av), (bd, bv) = a, b
        return Vector(_NUMPY_CMP[op](ad, bd), _combine_valid(av, bv))
    compare = _NUMPY_CMP[op]
    result = None
    if isinstance(right, _Const):
        result = _object_compare(
            left, n, lambda values: compare(values, right.value)
        )
    elif isinstance(left, _Const):
        result = _object_compare(
            right, n, lambda values: compare(left.value, values)
        )
    if result is not None:
        return result
    out = []
    for x, y in zip(_values_list(left, n), _values_list(right, n)):
        out.append(None if x is None or y is None else fn(x, y))
    return Vector(out)


def _between_kernel(negated: bool, value, low, high, n: int):
    consts = [value, low, high]
    if all(isinstance(c, _Const) for c in consts):
        v, lo, hi = (c.value for c in consts)
        if v is None or lo is None or hi is None:
            return _Const(None)
        result = lo <= v <= hi
        return _Const(not result if negated else result)
    if any(isinstance(c, _Const) and c.value is None for c in consts):
        return Vector(np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    v = _numeric_operand(value)
    lo = _numeric_operand(low)
    hi = _numeric_operand(high)
    if v is not None and lo is not None and hi is not None:
        (vd, vv), (lod, lov), (hid, hiv) = v, lo, hi
        vals = (lod <= vd) & (vd <= hid)
        if negated:
            vals = ~vals
        return Vector(vals, _combine_valid(vv, lov, hiv))
    if isinstance(low, _Const) and isinstance(high, _Const):

        def within(values: np.ndarray) -> np.ndarray:
            vals = (low.value <= values) & (values <= high.value)
            return ~vals if negated else vals

        result = _object_compare(value, n, within)
        if result is not None:
            return result
    out = []
    for x, lo_v, hi_v in zip(
        _values_list(value, n), _values_list(low, n), _values_list(high, n)
    ):
        if x is None or lo_v is None or hi_v is None:
            out.append(None)
        else:
            result = lo_v <= x <= hi_v
            out.append(not result if negated else result)
    return Vector(out)


def _in_kernel(constant_set: frozenset, negated: bool, operand, n: int):
    if isinstance(operand, _Const):
        if operand.value is None:
            return _Const(None)
        result = operand.value in constant_set
        return _Const(not result if negated else result)
    numeric = _numeric_operand(operand)
    if numeric is not None:
        data, valid = numeric
        options = [
            option for option in constant_set
            if isinstance(option, (int, float))
            and not isinstance(option, bool)
        ]
        vals = np.isin(data, options)
        if negated:
            vals = ~vals
        return Vector(vals, valid)
    out = []
    for v in _values_list(operand, n):
        if v is None:
            out.append(None)
        else:
            result = v in constant_set
            out.append(not result if negated else result)
    return Vector(out)


def _is_null_kernel(negated: bool, operand, n: int):
    if isinstance(operand, _Const):
        result = operand.value is None
        return _Const(not result if negated else result)
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
    if isinstance(operand, _Const):
        return _Const(None if operand.value is None else -operand.value)
    numeric = _numeric_operand(operand)
    if numeric is not None:
        data, valid = numeric
        return Vector(-data, valid)
    return Vector(
        [None if v is None else -v for v in _values_list(operand, n)]
    )


def _map_kernel(fn, operand, n: int):
    """``fn`` of every non-NULL value (CAST, a LIKE match)."""
    if isinstance(operand, _Const):
        return _Const(None if operand.value is None else fn(operand.value))
    return Vector(
        [None if v is None else fn(v) for v in _values_list(operand, n)]
    )


def _call_kernel(fn, null_propagating: bool, *operands):
    """A scalar function mapped over its argument columns: one call per
    row of the operands (also when every argument is a constant — a
    function is called as often as the row path calls it)."""
    *args, n = operands
    rows = zip(*[_values_list(arg, n) for arg in args]) if args else repeat(
        (), n
    )
    if null_propagating:
        return Vector([None if None in row else fn(*row) for row in rows])
    return Vector([fn(*row) for row in rows])


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
    kernel, children: list, state: _VectorCompileState, pure: bool
):
    """The node ``batch -> kernel(*operands, n)`` over its children's
    results, in the dictionary domain when it can be: if the vector
    operands are coded over one codes array and the dictionary is shorter
    than the batch, the same kernel evaluates the dictionary entries and
    the result shares the codes.  ``pure`` is False for a UDF, which
    nothing declares deterministic: it sees every row.

    The dictionary may hold entries no row of the batch has (an earlier
    filter dropped them) on which a built-in can fail where the rows
    would not; any failure there hands the batch to the evaluation over
    the rows, which decides.
    """
    metrics = state.metrics

    def run(batch: ColumnBatch):
        operands = [child(batch) for child in children]
        n = batch.num_rows
        source = _shared_codes(operands) if pure else None
        if source is None or len(source.dictionary) >= n:
            return kernel(*operands, n)
        k = len(source.dictionary)
        entries = [
            operand if isinstance(operand, _Const) else operand.dictionary
            for operand in operands
        ]
        try:
            result = kernel(*entries, k)
        except Exception:  # noqa: BLE001 - see docstring
            return kernel(*operands, n)
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
    return _kernel_node(kernel, children, state, not _calls_udf(expr))


def _vector_node(expr: BoundExpr, state: _VectorCompileState):
    """Compile one expression node to a closure ``batch -> Vector|_Const``."""
    if isinstance(expr, BoundLiteral):
        constant = _Const(expr.value)
        return lambda batch: constant
    if isinstance(expr, BoundColumn):
        return partial(ColumnBatch.vector, ordinal=expr.index)
    operands, pure = expr.children(), True
    if isinstance(expr, BoundArithmetic):
        kernel = partial(_arith_kernel, expr.op, expr._fn)
    elif isinstance(expr, BoundComparison):
        kernel = partial(_compare_kernel, expr.op, expr._fn)
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
        match, negated = expr._compiled.match, expr.negated
        kernel = partial(
            _map_kernel, lambda value: (match(value) is not None) != negated
        )
        operands = (expr.operand,)
    elif isinstance(expr, BoundCast):
        kernel = partial(_map_kernel, expr._cast_fn)
    elif isinstance(expr, BoundScalarCall):
        kernel = partial(_call_kernel, expr._fn, expr._null_propagating)
        pure = not _is_udf_call(expr)
        if not pure:
            state.interpreted += 1
    else:
        # CASE, correlated IN, dynamic LIKE.
        return _interpret_subtree(expr, state)
    children = [_vector_node(operand, state) for operand in operands]
    return _kernel_node(kernel, children, state, pure)


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
    NULL and FALSE both drop the row, as in the row path)."""
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
