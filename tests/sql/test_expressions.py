"""Bound expression evaluation, null semantics, signatures."""

import pytest

from repro.datatypes import BOOLEAN, DOUBLE, INT, STRING
from repro.errors import TypeMismatchError
from repro.sql.expressions import (
    BoundAnd,
    BoundArithmetic,
    BoundBetween,
    BoundCase,
    BoundCast,
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
    expr_signature,
    like_to_regex,
    rewrite_columns,
)


def col(index, data_type=INT, name="c"):
    return BoundColumn(index, data_type, name)


def lit(value, data_type=INT):
    return BoundLiteral(value, data_type)


class TestArithmetic:
    def test_basic_ops(self):
        row = (10, 3)
        assert BoundArithmetic("+", col(0), col(1)).eval(row) == 13
        assert BoundArithmetic("-", col(0), col(1)).eval(row) == 7
        assert BoundArithmetic("*", col(0), col(1)).eval(row) == 30
        assert BoundArithmetic("%", col(0), col(1)).eval(row) == 1

    def test_remainder_takes_the_sign_of_the_dividend(self):
        # Hive's (Java's) truncated remainder, not Python's floored one.
        expr = BoundArithmetic("%", col(0), col(1))
        assert expr.eval((-7, 3)) == -1
        assert expr.eval((10, -3)) == 1
        assert expr.eval((-1.0, 2)) == -1.0
        assert expr.eval((7.5, -2)) == 1.5
        assert expr.eval((-7, 0)) is None

    def test_division_returns_double_and_null_on_zero(self):
        expr = BoundArithmetic("/", col(0), col(1))
        assert expr.data_type == DOUBLE
        assert expr.eval((10, 4)) == 2.5
        assert expr.eval((10, 0)) is None

    def test_null_propagates(self):
        expr = BoundArithmetic("+", col(0), col(1))
        assert expr.eval((None, 1)) is None
        assert expr.eval((1, None)) is None

    def test_type_promotion(self):
        expr = BoundArithmetic("+", col(0, INT), col(1, DOUBLE))
        assert expr.data_type == DOUBLE

    def test_string_plus_rejected(self):
        with pytest.raises(TypeMismatchError):
            BoundArithmetic("+", col(0, STRING), col(1, STRING))


class TestComparisons:
    def test_all_operators(self):
        row = (5, 7)
        assert BoundComparison("<", col(0), col(1)).eval(row) is True
        assert BoundComparison("<=", col(0), col(1)).eval(row) is True
        assert BoundComparison(">", col(0), col(1)).eval(row) is False
        assert BoundComparison(">=", col(0), col(1)).eval(row) is False
        assert BoundComparison("=", col(0), col(1)).eval(row) is False
        assert BoundComparison("<>", col(0), col(1)).eval(row) is True

    def test_null_yields_null(self):
        expr = BoundComparison("=", col(0), col(1))
        assert expr.eval((None, 1)) is None


class TestThreeValuedLogic:
    def test_and_kleene(self):
        true, false, null = lit(True, BOOLEAN), lit(False, BOOLEAN), lit(None, BOOLEAN)
        assert BoundAnd(true, true).eval(()) is True
        assert BoundAnd(true, false).eval(()) is False
        assert BoundAnd(false, null).eval(()) is False
        assert BoundAnd(true, null).eval(()) is None
        assert BoundAnd(null, null).eval(()) is None

    def test_or_kleene(self):
        true, false, null = lit(True, BOOLEAN), lit(False, BOOLEAN), lit(None, BOOLEAN)
        assert BoundOr(false, true).eval(()) is True
        assert BoundOr(false, false).eval(()) is False
        assert BoundOr(null, true).eval(()) is True
        assert BoundOr(false, null).eval(()) is None

    def test_not(self):
        assert BoundNot(lit(True, BOOLEAN)).eval(()) is False
        assert BoundNot(lit(None, BOOLEAN)).eval(()) is None

    def test_negate(self):
        assert BoundNegate(lit(5)).eval(()) == -5
        assert BoundNegate(lit(None)).eval(()) is None


class TestPredicates:
    def test_between(self):
        expr = BoundBetween(col(0), lit(1), lit(10))
        assert expr.eval((5,)) is True
        assert expr.eval((0,)) is False
        assert expr.eval((None,)) is None

    def test_between_negated(self):
        expr = BoundBetween(col(0), lit(1), lit(10), negated=True)
        assert expr.eval((5,)) is False
        assert expr.eval((50,)) is True

    def test_in_constant_fast_path(self):
        expr = BoundIn(col(0), [lit(1), lit(2)])
        assert expr._constant_set is not None
        assert expr.eval((1,)) is True
        assert expr.eval((3,)) is False
        assert expr.eval((None,)) is None

    def test_in_dynamic_options(self):
        expr = BoundIn(col(0), [col(1)])
        assert expr._constant_set is None
        assert expr.eval((3, 3)) is True
        assert expr.eval((3, 4)) is False

    def test_in_negated(self):
        expr = BoundIn(col(0), [lit(1)], negated=True)
        assert expr.eval((2,)) is True

    def test_in_with_a_null_option_is_unknown_unless_it_matches(self):
        for options in ([lit(10), lit(None)], [lit(10), col(1)]):
            expr = BoundIn(col(0), options)
            negated = BoundIn(col(0), options, negated=True)
            assert expr.eval((10, None)) is True
            assert negated.eval((10, None)) is False
            assert expr.eval((3, None)) is None
            assert negated.eval((3, None)) is None

    def test_is_null(self):
        assert BoundIsNull(col(0)).eval((None,)) is True
        assert BoundIsNull(col(0)).eval((1,)) is False
        assert BoundIsNull(col(0), negated=True).eval((1,)) is True


class TestLike:
    def test_percent_and_underscore(self):
        regex = like_to_regex("a%b_c")
        assert regex.match("aXXXbYc")
        assert not regex.match("ab_c_extra")

    def test_special_chars_escaped(self):
        regex = like_to_regex("10.5%")
        assert regex.match("10.5 off")
        assert not regex.match("1085")

    def test_like_expression(self):
        expr = BoundLike(col(0, STRING), lit("url%", STRING))
        assert expr.eval(("url123",)) is True
        assert expr.eval(("xurl",)) is False
        assert expr.eval((None,)) is None

    def test_like_dynamic_pattern(self):
        expr = BoundLike(col(0, STRING), col(1, STRING))
        assert expr.eval(("abc", "a%")) is True

    def test_not_like(self):
        expr = BoundLike(col(0, STRING), lit("a%", STRING), negated=True)
        assert expr.eval(("b",)) is True


class TestCase:
    def test_first_match_wins(self):
        expr = BoundCase(
            [
                (BoundComparison(">", col(0), lit(10)), lit("big", STRING)),
                (BoundComparison(">", col(0), lit(5)), lit("mid", STRING)),
            ],
            lit("small", STRING),
            STRING,
        )
        assert expr.eval((20,)) == "big"
        assert expr.eval((7,)) == "mid"
        assert expr.eval((1,)) == "small"

    def test_no_else_yields_null(self):
        expr = BoundCase(
            [(BoundComparison(">", col(0), lit(10)), lit(1))], None, INT
        )
        assert expr.eval((5,)) is None


class TestScalarCall:
    def test_null_propagating(self):
        expr = BoundScalarCall("len", len, [col(0, STRING)], INT)
        assert expr.eval(("abc",)) == 3
        assert expr.eval((None,)) is None

    def test_non_propagating(self):
        fn = lambda a, b: b if a is None else a  # noqa: E731
        expr = BoundScalarCall(
            "nvl", fn, [col(0), lit(9)], INT, null_propagating=False
        )
        assert expr.eval((None,)) == 9


class TestReferencesAndRewrite:
    def test_references_collects_all(self):
        expr = BoundAnd(
            BoundComparison("=", col(0), col(3)),
            BoundBetween(col(5), lit(1), lit(2)),
        )
        assert expr.references() == {0, 3, 5}

    def test_rewrite_remaps_without_mutating_original(self):
        original = BoundComparison("=", col(2), lit(1))
        rewritten = rewrite_columns(original, {2: 0})
        assert rewritten.eval((1,)) is True
        assert original.left.index == 2

    def test_rewrite_nested(self):
        expr = BoundCase(
            [(BoundComparison(">", col(4), lit(0)), col(5))], col(6), INT
        )
        rewritten = rewrite_columns(expr, {4: 0, 5: 1, 6: 2})
        assert rewritten.eval((1, "then", "else")) == "then"
        assert rewritten.eval((-1, "then", "else")) == "else"

    def test_rewrite_reaches_every_child_and_shares_the_rest(self):
        # One node of each kind, a column in each of its child slots: the
        # rewrite must remap every column ``children()`` leads to.
        c = col
        nodes = [
            BoundArithmetic("+", c(1), c(2)),
            BoundComparison("<", c(1), c(2)),
            BoundAnd(BoundIsNull(c(1)), BoundIsNull(c(2))),
            BoundOr(BoundIsNull(c(1)), BoundIsNull(c(2))),
            BoundNot(BoundIsNull(c(1))),
            BoundNegate(c(1)),
            BoundBetween(c(1), c(2), c(3)),
            BoundIn(c(1), [c(2), c(3)]),
            BoundLike(c(1, STRING), c(2, STRING)),
            BoundCase([(BoundIsNull(c(1)), c(2))], c(3), INT),
            BoundCast(c(1), DOUBLE, float),
            BoundScalarCall("f", max, [c(1), c(2), c(3)], INT),
        ]
        for node in nodes:
            rewritten = rewrite_columns(node, {1: 11, 2: 12, 3: 13})
            assert rewritten.references() == {
                index + 10 for index in node.references()
            }
            assert node.references() <= {1, 2, 3}
        shared = BoundArithmetic("+", c(5), c(1))
        expr = BoundAnd(
            BoundComparison("=", shared, lit(3)), BoundIsNull(c(2))
        )
        rewritten = rewrite_columns(expr, {1: 1, 2: 0, 5: 5})
        assert rewritten.left is expr.left
        assert rewritten.right.operand.index == 0
        assert expr.right.operand.index == 2


class TestSignatures:
    def test_same_column_same_signature_regardless_of_name(self):
        assert expr_signature(col(3, INT, "a.x")) == expr_signature(
            col(3, INT, "x")
        )

    def test_different_columns_differ(self):
        assert expr_signature(col(1)) != expr_signature(col(2))

    def test_operator_included(self):
        left = BoundComparison("<", col(0), lit(1))
        right = BoundComparison(">", col(0), lit(1))
        assert expr_signature(left) != expr_signature(right)

    def test_function_name_included(self):
        f = BoundScalarCall("upper", str.upper, [col(0, STRING)], STRING)
        g = BoundScalarCall("lower", str.lower, [col(0, STRING)], STRING)
        assert expr_signature(f) != expr_signature(g)

    def test_literal_value_included(self):
        assert expr_signature(lit(1)) != expr_signature(lit(2))
