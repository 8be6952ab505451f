"""BIGINT arithmetic has one overflow rule: ``+``, ``-``, ``*`` and unary
``-`` on integers wrap to 64 bits, as Hive's Java ``long`` does.  An
integer literal beyond BIGINT is a DOUBLE, as in sqlite.

The vector kernels (int64 arrays), the per-row fallback (a multi-column
CASE) and constant folding all answer the same, repr-identical values.
"""

from __future__ import annotations

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE
from tests.oracle import assert_rows_match, sqlite_rows

MAX = (1 << 63) - 1
MIN = -(1 << 63)

ROWS = [
    (0, MAX, 1),
    (1, MIN, 1),
    (2, MIN, -1),
    (3, 1 << 62, 2),
    (4, MAX, MAX),
    (5, 3, -4),
]


def _wrapped(value: int) -> int:
    return (value - MIN) % (1 << 64) + MIN


def _literal(value: int) -> str:
    return "(-9223372036854775807 - 1)" if value == MIN else f"({value})"


_EXACT = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


@pytest.fixture(scope="module", params=[False, True], ids=["dense", "null"])
def shark(request):
    shark = SharkContext(num_workers=2)
    shark.sql(
        "CREATE TABLE t (i INT, a BIGINT, b BIGINT) "
        "TBLPROPERTIES ('shark.cache'='true')"
    )
    rows = ROWS + ([(6, None, 1)] if request.param else [])
    values = ", ".join(
        "(" + ", ".join("NULL" if v is None else _literal(v) for v in row)
        + ")"
        for row in rows
    )
    shark.sql(f"INSERT INTO t VALUES {values}")
    return shark


def _column(shark, expression: str) -> list:
    rows = shark.sql(f"SELECT i, {expression} FROM t").rows
    return [value for i, value in sorted(rows) if i < len(ROWS)]


def _assert_identical(got: list, want: list) -> None:
    assert [repr(value) for value in got] == [repr(value) for value in want]


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_binary_op_wraps_on_every_path(shark, op):
    want = [_wrapped(_EXACT[op](a, b)) for __, a, b in ROWS]
    assert any(
        value != _EXACT[op](a, b) for value, (__, a, b) in zip(want, ROWS)
    )
    kernel = _column(shark, f"a {op} b")
    fallback = _column(
        shark,
        f"CASE WHEN a IS NOT NULL AND b IS NOT NULL THEN a {op} b END",
    )
    folded = [
        shark.sql(f"SELECT {_literal(a)} {op} {_literal(b)}").rows[0][0]
        for __, a, b in ROWS
    ]
    for got in (kernel, fallback, folded):
        _assert_identical(got, want)


def test_negate_wraps_on_every_path(shark):
    want = [_wrapped(-a) for __, a, ___ in ROWS]
    assert MIN in want and -MIN not in want
    kernel = _column(shark, "-a")
    fallback = _column(
        shark, "CASE WHEN a IS NOT NULL AND b IS NOT NULL THEN -a END"
    )
    folded = [
        shark.sql(f"SELECT -{_literal(a)}").rows[0][0] for __, a, ___ in ROWS
    ]
    for got in (kernel, fallback, folded):
        _assert_identical(got, want)


def test_post_aggregate_arithmetic_wraps(shark):
    both = "MAX(a) IS NOT NULL AND MIN(a) IS NOT NULL"
    (row,) = shark.sql(
        "SELECT MAX(a) + 1, MIN(a) - 1, -MIN(a), "
        f"CASE WHEN {both} THEN MAX(a) + 1 END, "
        f"CASE WHEN {both} THEN MIN(a) - 1 END, "
        f"CASE WHEN {both} THEN -MIN(a) END FROM t"
    ).rows
    _assert_identical(list(row), [MIN, MAX, MIN] * 2)


#: An integer literal one past BIGINT, and one far beyond it.
BEYOND = "9223372036854775808"
FAR = "99999999999999999999"


@pytest.mark.parametrize(
    "template, exact",
    [
        (BEYOND, lambda a: float(BEYOND)),
        (f"{{a}} + {BEYOND}", lambda a: a + float(BEYOND)),
        (f"{{a}} - {BEYOND}", lambda a: a - float(BEYOND)),
        (f"{{a}} * {FAR}", lambda a: a * float(FAR)),
    ],
    ids=["literal", "plus", "minus", "times"],
)
def test_a_literal_beyond_bigint_is_a_double_on_every_path(
    shark, template, exact
):
    want = [exact(a) for __, a, ___ in ROWS]
    assert all(type(value) is float for value in want)
    expression = template.format(a="a")
    kernel = _column(shark, expression)
    fallback = _column(
        shark,
        f"CASE WHEN a IS NOT NULL AND b IS NOT NULL THEN {expression} END",
    )
    folded = [
        shark.sql(f"SELECT {template.format(a=_literal(a))}").rows[0][0]
        for __, a, ___ in ROWS
    ]
    for got in (kernel, fallback, folded):
        _assert_identical(got, want)


@pytest.mark.parametrize(
    "statement", [f"SELECT i, a + {BEYOND} FROM t", f"SELECT i, {BEYOND} FROM t"]
)
def test_a_literal_beyond_bigint_matches_the_oracle(shark, statement):
    result = shark.sql(statement)
    assert result.schema.fields[1].data_type == DOUBLE
    tables = {"t": (("i", "a", "b"), shark.sql("SELECT i, a, b FROM t").rows)}
    assert_rows_match(result.rows, sqlite_rows(statement, tables))
