"""Expression compilation: compiled evaluation must match interpretation.

Section 5's "bytecode compilation of expression evaluators" is, in this
repo, the vector kernels of ``repro.sql.codegen``; these tests build each
node type by hand and cross-check the compiled kernel over a batch
against ``BoundExpr.eval`` per row, three-valued logic included.  (The
parsed-expression table with coded columns is
``tests/sql/test_dictionary_kernels.py``.)
"""

import math
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SharkContext
from repro.columnar.batch import ColumnBatch, Vector
from repro.datatypes import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    TIMESTAMP,
    Schema,
)
from repro.sql.codegen import (
    compile_vector_expression,
    compile_vector_predicate,
    compile_vector_projection,
)
from repro.sql.expressions import (
    BoundAnd,
    BoundArithmetic,
    BoundBetween,
    BoundCase,
    BoundColumn,
    BoundComparison,
    BoundIn,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundNegate,
    BoundNot,
    BoundOr,
    BoundScalarCall,
)

from tests.oracle import assert_rows_match, sqlite_rows


def col(index, data_type=INT):
    return BoundColumn(index, data_type, f"c{index}")


def lit(value, data_type=INT):
    return BoundLiteral(value, data_type)


def batch_of(rows):
    """One batch over ``rows``: a NULL-free numeric column as a typed
    array (the kernels' array form), anything else list-backed (their
    ``apply`` fallback)."""
    vectors = []
    for values in zip(*rows):
        if all(type(v) in (int, float) for v in values):
            vectors.append(Vector(np.asarray(values)))
        else:
            vectors.append(Vector(list(values)))
    return ColumnBatch(vectors, len(rows))


def compiled_values(expr, rows):
    kernel, __ = compile_vector_expression(expr)
    return kernel(batch_of(rows)).to_python_list()


def check(expr, rows):
    want = [expr.eval(row) for row in rows]
    assert compiled_values(expr, rows) == want, expr.name


NUMERIC_ROWS = [
    (5, 7), (7, 5), (0, 0), (None, 3), (3, None), (None, None), (-2, 2),
]


class TestNodeCoverage:
    def test_arithmetic_all_ops(self):
        for op in ("+", "-", "*", "%", "/"):
            rows = [(6, 3), (5, 0) if op in ("/", "%") else (5, 2)]
            check(BoundArithmetic(op, col(0), col(1)), rows)
            check(
                BoundArithmetic(op, col(0), col(1)),
                rows + [(None, 1), (1, None)],
            )

    def test_remainder_takes_the_sign_of_the_dividend(self):
        remainder = BoundArithmetic("%", col(0), col(1))
        for rows in ([(-7, 3), (10, -3)], [(-7, 3), (10, -3), (None, 2)]):
            check(remainder, rows)
        assert compiled_values(remainder, [(-7, 3), (10, -3)]) == [-1, 1]
        floats = [(-1.0, 2), (7.5, -2), (-4.0, 2)]
        assert compiled_values(remainder, floats) == [
            math.fmod(a, b) for a, b in floats
        ] == [-1.0, 1.5, -0.0]
        check(remainder, floats + [(1.5, 0)])

    def test_division_by_zero_null(self):
        divide = BoundArithmetic("/", col(0), col(1))
        assert compiled_values(divide, [(4, 0), (4, 2)]) == [None, 2.0]
        assert compiled_values(divide, [(4, 0), (None, 2)]) == [None, None]

    def test_comparisons(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            check(BoundComparison(op, col(0), col(1)), NUMERIC_ROWS)
            check(BoundComparison(op, col(0), col(1)), NUMERIC_ROWS[:3])

    def test_kleene_logic(self):
        t, f, n = (
            lit(True, BOOLEAN), lit(False, BOOLEAN), lit(None, BOOLEAN),
        )
        for left in (t, f, n):
            for right in (t, f, n):
                check(BoundAnd(left, right), [()])
                check(BoundOr(left, right), [()])

    def test_short_circuit_preserved(self):
        # Per row, AND with a false left does not evaluate the right side;
        # a batch has no such order, and a UDF sees every row of it.
        calls = []

        def boom(v):
            calls.append(v)
            return True

        right = BoundScalarCall("boom", boom, [col(0)], BOOLEAN)
        expr = BoundAnd(lit(False, BOOLEAN), right)
        assert expr.eval((1,)) is False
        assert calls == []
        assert compiled_values(expr, [(1,), (2,)]) == [False, False]
        assert calls == [1, 2]

    def test_not_negate(self):
        check(BoundNot(BoundComparison(">", col(0), lit(3))), NUMERIC_ROWS)
        check(BoundNegate(col(0)), [(5,), (None,), (-3,)])
        check(BoundNegate(col(0)), [(5,), (-3,)])

    def test_between(self):
        for rows in ([(5,), (0,), (10,), (11,), (None,)], [(5,), (0,), (11,)]):
            check(BoundBetween(col(0), lit(1), lit(10)), rows)
            check(BoundBetween(col(0), lit(1), lit(10), negated=True), rows)

    def test_in_constant_and_dynamic(self):
        for rows in ([(1,), (4,), (None,)], [(1,), (4,)]):
            check(BoundIn(col(0), [lit(1), lit(2)]), rows)
            check(BoundIn(col(0), [lit(1)], negated=True), rows)
            check(BoundIn(col(0), [col(0)]), rows)  # dynamic option list
            # A NULL option: no match is NULL, under NOT too.
            for negated in (False, True):
                check(BoundIn(col(0), [lit(1), lit(None)], negated), rows)
                check(BoundIn(col(0), [lit(None)], negated), rows)
        assert compiled_values(
            BoundIn(col(0), [lit(1), lit(None)], negated=True),
            [(1,), (4,)],
        ) == [False, None]

    def test_like_static_and_dynamic(self):
        rows = [("url7",), ("x",), (None,)]
        check(BoundLike(col(0, STRING), lit("url%", STRING)), rows)
        check(
            BoundLike(col(0, STRING), lit("url%", STRING), negated=True),
            rows,
        )
        dynamic = BoundLike(col(0, STRING), col(1, STRING))
        check(dynamic, [("abc", "a%"), ("abc", "b%"), (None, "a%")])

    def test_is_null(self):
        check(BoundIsNull(col(0)), [(1,), (None,)])
        check(BoundIsNull(col(0), negated=True), [(1,), (None,)])
        check(BoundIsNull(col(0)), [(1,), (2,)])

    def test_case_chain(self):
        expr = BoundCase(
            [
                (BoundComparison(">", col(0), lit(10)), lit("big", STRING)),
                (BoundComparison(">", col(0), lit(5)), lit("mid", STRING)),
            ],
            lit("small", STRING),
            STRING,
        )
        check(expr, [(20,), (7,), (1,), (None,)])

    def test_case_without_else(self):
        expr = BoundCase(
            [(BoundComparison(">", col(0), lit(10)), lit(1))], None, INT
        )
        check(expr, [(20,), (1,)])

    def test_scalar_calls(self):
        upper = BoundScalarCall(
            "upper", str.upper, [col(0, STRING)], STRING
        )
        check(upper, [("abc",), (None,)])
        coalesce = BoundScalarCall(
            "coalesce",
            lambda *vs: next((v for v in vs if v is not None), None),
            [col(0), col(1)],
            INT,
            null_propagating=False,
        )
        check(coalesce, [(None, 5), (3, 5), (None, None)])

    def test_nested_composition(self):
        expr = BoundOr(
            BoundAnd(
                BoundComparison(">", col(0), lit(2)),
                BoundBetween(col(1), lit(0), lit(9)),
            ),
            BoundIsNull(col(0)),
        )
        check(expr, NUMERIC_ROWS)


class _Day(date):
    pass


class TestTemporalKernels:
    """DATE / TIMESTAMP columns are datetime64 vectors: compare, BETWEEN
    and constant IN / NOT IN are one array operation over the day
    (microsecond) numbers, NULLs in the validity mask — never ``apply``
    per row — and anything numpy would not compare as Python does (a date
    with a datetime, a string, a zone) is still left to ``apply``."""

    DAYS = [date(1969, 12, 31), date(1970, 1, 1), None, date(1995, 3, 15),
            date.min, date.max]
    STAMPS = [datetime(1969, 12, 31, 23, 59, 59, 999999), None,
              datetime(2013, 3, 10, 2, 30), datetime.min, datetime.max]

    @staticmethod
    def _cases(data_type, values):
        present = [v for v in values if v is not None]
        low, high = sorted(present)[1], sorted(present)[-2]
        column = col(0, data_type)

        def lits(*options):
            return [lit(option, data_type) for option in options]

        yield from (
            BoundComparison(op, column, lit(low, data_type))
            for op in ("=", "<>", "<", "<=", ">", ">=")
        )
        yield BoundComparison("<", lit(low, data_type), column)
        yield BoundComparison("=", column, column)
        yield BoundBetween(column, *lits(low, high))
        yield BoundBetween(column, *lits(low, high), negated=True)
        yield BoundIn(column, lits(low, high))
        yield BoundIn(column, lits(low, high), negated=True)
        yield BoundIn(column, lits(low) + [lit(None, data_type)])

    @pytest.mark.parametrize(
        "data_type,values", [(DATE, DAYS), (TIMESTAMP, STAMPS)], ids=str
    )
    @pytest.mark.parametrize("nulls", [True, False], ids=["nulls", "dense"])
    def test_array_form_equals_eval_and_never_calls_apply(
        self, monkeypatch, data_type, values, nulls
    ):
        if not nulls:
            values = [v for v in values if v is not None]
        vector = Vector.from_values(values)
        assert vector.data.dtype.kind == "M"
        batch = ColumnBatch([vector], len(values))
        cases = [
            (expr, [expr.eval((v,)) for v in values])
            for expr in self._cases(data_type, values)
        ]

        def refuse(*args):
            raise AssertionError("apply called per row")

        for node in (BoundComparison, BoundBetween, BoundIn):
            monkeypatch.setattr(node, "apply", refuse)
        for expr, want in cases:
            kernel, interpreted = compile_vector_expression(expr)
            assert interpreted == 0
            assert kernel(batch).to_python_list() == want, expr.name
        # IS [NOT] NULL reads the validity mask.
        monkeypatch.undo()
        check_null = BoundIsNull(col(0, data_type), negated=True)
        kernel, __ = compile_vector_expression(check_null)
        assert kernel(batch).to_python_list() == [
            v is not None for v in values
        ]

    def test_what_numpy_would_compare_differently_is_left_to_apply(self):
        days = ColumnBatch([Vector.from_values(self.DAYS)], len(self.DAYS))
        stamps = ColumnBatch(
            [Vector.from_values(self.STAMPS)], len(self.STAMPS)
        )
        aware = datetime(2013, 3, 10, 2, 30, tzinfo=timezone.utc)
        for batch, values, expr in (
            # A date equals no datetime, though their datetime64s would.
            (days, self.DAYS,
             BoundComparison("=", col(0, DATE),
                             lit(datetime(1970, 1, 1), TIMESTAMP))),
            (days, self.DAYS,
             BoundIn(col(0, DATE), [lit(datetime(1970, 1, 1), TIMESTAMP),
                                    lit(_Day(1995, 3, 15), DATE)])),
            (days, self.DAYS,
             BoundComparison("=", col(0, DATE), lit("1970-01-01", STRING))),
            # ... and a naive datetime none with a zone.
            (stamps, self.STAMPS,
             BoundIn(col(0, TIMESTAMP),
                     [lit(aware, TIMESTAMP),
                      lit(datetime(2013, 3, 10, 2, 30, fold=1), TIMESTAMP)])),
            (stamps, self.STAMPS,
             BoundComparison("<>", col(0, TIMESTAMP), lit(aware, TIMESTAMP))),
        ):
            kernel, __ = compile_vector_expression(expr)
            want = [expr.eval((v,)) for v in values]
            assert kernel(batch).to_python_list() == want, expr.name


class TestProjectionAndPredicate:
    def test_projection_tuple(self):
        plans, interpreted = compile_vector_projection(
            [BoundArithmetic("*", col(0), lit(2)), col(1, STRING)]
        )
        (kind, kernel), second = plans
        assert (kind, second, interpreted) == ("expr", ("col", 1), 0)
        assert kernel(batch_of([(3, "x")])).to_python_list() == [6]

    def test_single_column_projection(self):
        # A bare column moves as it is, without a kernel.
        assert compile_vector_projection([col(0)]) == ([("col", 0)], 0)

    def test_predicate_true_only(self):
        predicate, __ = compile_vector_predicate(
            BoundComparison(">", col(0), lit(3))
        )
        # NULL is not TRUE
        assert predicate(batch_of([(4,), (2,), (None,)])).tolist() == [
            True, False, False,
        ]


class TestEndToEnd:
    def test_codegen_matches_interpreted_query(self):
        """The kernels against sqlite's interpreter on the same rows."""
        shark = SharkContext(num_workers=2)
        shark.create_table(
            "t", Schema.of(("a", INT), ("b", STRING), ("c", DOUBLE)),
            cached=True,
        )
        rows = [
            (i, f"s{i % 4}", float(i) / 3.0) if i % 5 else (i, None, None)
            for i in range(200)
        ]
        shark.load_rows("t", rows)
        query = (
            "SELECT a * 2, UPPER(b), CASE WHEN c > 20 THEN 'hi' ELSE 'lo' "
            "END FROM t WHERE (a BETWEEN 10 AND 150 AND b LIKE 's%') "
            "OR c IS NULL"
        )
        assert_rows_match(
            shark.sql(query).rows,
            sqlite_rows(query, {"t": (("a", "b", "c"), rows)}),
        )


class TestPropertyEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-100, 100)),
                st.one_of(st.none(), st.integers(-100, 100)),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(-50, 50),
        st.integers(-50, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_predicates_match(self, rows, low, high):
        expr = BoundOr(
            BoundAnd(
                BoundComparison(">", col(0), lit(low)),
                BoundComparison("<=", col(1), lit(high)),
            ),
            BoundBetween(col(0), lit(low), lit(high)),
        )
        check(expr, rows)
