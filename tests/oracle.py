"""The independent oracle: stdlib ``sqlite3`` over the same rows.

Nothing here imports the engine.  A test loads its tables' rows into an
in-memory sqlite database, runs the statement it ran through Shark and
compares: as multisets with a :data:`REL_TOL` relative float tolerance
(sums accumulate in another order), or as lists where the statement
orders every row it keeps (``ORDER BY ... LIMIT``).  Both sides are
normalised first: a DATE is its ISO text — which is how sqlite holds it,
and which orders and compares as the date does — and a BOOLEAN its 0/1.
UDFs are registered with ``create_function`` under the same name.

Dialect differences.  A statement that hits one is not handed to the
oracle as written; the callers avoid or rewrite it:

* ``DATE '...'`` literals are rewritten to their ISO text here.
* ``/`` is float division here; sqlite divides two integers as integers.
* ``%`` on a DOUBLE: sqlite truncates both operands to integers first;
  here it is the truncated floating remainder (``math.fmod``, Hive's and
  Java's).  On integers the two agree: the sign is the dividend's.
* ``CAST(... AS STRING)``: sqlite needs ``TEXT``.
* A CAST of a value that does not convert (``CAST('a' AS INT)``) is NULL
  here, as in Hive; sqlite answers 0.  No such CAST goes to the oracle.
* ``||`` is not parsed here (``CONCAT`` is).
* ``BETWEEN`` with a NULL bound is NULL here, as in Hive; sqlite answers
  FALSE when the other bound already fails (``5 BETWEEN 6 AND NULL``).
* Integer ``+``, ``-``, ``*`` and unary ``-`` wrap to 64 bits here, as
  Hive's Java ``long`` does (``9223372036854775807 + 1`` is
  ``-9223372036854775808``); sqlite answers a REAL, and its ``SUM``
  raises "integer overflow".  No overflowing statement goes to the
  oracle.
* An integer literal beyond BIGINT is a DOUBLE here and in sqlite
  (``typeof(9223372036854775808)`` is ``real``), but sqlite reads
  ``-9223372036854775808`` as one INTEGER literal; here it is the
  negated DOUBLE.  No such negated literal goes to the oracle.
"""

from __future__ import annotations

import math
import re
import sqlite3
from collections import Counter
from datetime import date
from typing import Callable, Mapping, Optional, Sequence

REL_TOL = 1e-9

_DATE_LITERAL = re.compile(r"DATE\s+'", re.IGNORECASE)

#: name -> (column names, rows)
Tables = Mapping[str, tuple[Sequence[str], list]]


def to_sqlite(statement: str) -> str:
    return _DATE_LITERAL.sub("'", statement)


def _plain(value):
    if type(value) is date:
        return value.isoformat()
    if isinstance(value, bool):
        return int(value)
    return value


def iso_rows(rows) -> list:
    """The rows as sqlite holds and answers them."""
    return [tuple(map(_plain, row)) for row in rows]


def sqlite_rows(
    statement: str,
    tables: Tables,
    udfs: Optional[Mapping[str, Callable]] = None,
) -> list:
    """What sqlite answers for ``statement`` over ``tables``, in its order.

    Columns are declared without a type, so sqlite keeps each value as
    it was given (no affinity turns an integer into a REAL)."""
    db = sqlite3.connect(":memory:")
    try:
        for name, fn in (udfs or {}).items():
            db.create_function(name, -1, fn, deterministic=True)
        for name, (columns, rows) in tables.items():
            db.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            marks = ", ".join("?" * len(columns))
            db.executemany(
                f"INSERT INTO {name} VALUES ({marks})", iso_rows(rows)
            )
        return db.execute(to_sqlite(statement)).fetchall()
    finally:
        db.close()


def oracle(
    statement: str,
    tables: Tables,
    udfs: Optional[Mapping[str, Callable]] = None,
) -> Counter:
    """sqlite's answer as a multiset, for an exact comparison."""
    return Counter(sqlite_rows(statement, tables, udfs))


def _is_float(value) -> bool:
    return isinstance(value, float)


def _sort_key(row: tuple, float_columns: set):
    # Exact columns order the rows; float columns only break their ties,
    # and are compared within the tolerance once both sides are sorted.
    exact = tuple(
        (value is not None, value)
        for index, value in enumerate(row)
        if index not in float_columns
    )
    floats = tuple(
        (row[index] is not None, row[index] or 0.0)
        for index in sorted(float_columns)
    )
    return exact, floats


def _close(got, want) -> bool:
    if _is_float(got) or _is_float(want):
        if got is None or want is None:
            return got is want
        if math.isnan(got) or math.isnan(want):
            return math.isnan(got) and math.isnan(want)
        return math.isclose(got, want, rel_tol=REL_TOL)
    return got == want


def assert_rows_match(
    got: list, want: list, ordered: bool = False, context=None
) -> None:
    """``got`` (the engine's rows) equals ``want`` (sqlite's): as lists
    when ``ordered``, else as multisets; floats within :data:`REL_TOL`."""
    left, right = iso_rows(got), iso_rows(want)
    assert len(left) == len(right), (context, len(left), len(right))
    if not ordered:
        float_columns = {
            index
            for row in left + right
            for index, value in enumerate(row)
            if _is_float(value)
        }
        left.sort(key=lambda row: _sort_key(row, float_columns))
        right.sort(key=lambda row: _sort_key(row, float_columns))
    for a, b in zip(left, right):
        assert len(a) == len(b) and all(map(_close, a, b)), (context, a, b)
