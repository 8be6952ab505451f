"""Output verification against stdlib ``sqlite3`` on the same rows.

The oracle shares no code with the program: it loads the generated rows
into an in-memory sqlite database and runs the same statements.  Results
compare as multisets with a 1e-9 relative float tolerance (sums
accumulate in another order).  Dialect differences handled here:

* ``DATE 'yyyy-mm-dd'`` literals become plain strings, and DATE columns
  are stored as ISO text (which sorts and compares like dates);
* ``LIMIT`` after ``ORDER BY`` may break ties differently — the frozen
  queries only limit on a float aggregate where ties do not occur;
* row order is not compared here; ordered queries are checked for
  sortedness separately by the workload.

Imports nothing from the program.
"""

from __future__ import annotations

import math
import re
import sqlite3
from datetime import date

_SQLITE_TYPES = {
    "int": "INTEGER",
    "double": "REAL",
    "string": "TEXT",
    "date": "TEXT",
}
_DATE_LITERAL = re.compile(r"DATE\s+'(\d{4}-\d{2}-\d{2})'", re.IGNORECASE)

REL_TOL = 1e-9
ABS_TOL = 1e-12


def to_sqlite(text: str) -> str:
    return _DATE_LITERAL.sub(r"'\1'", text)


def _plain(value):
    if isinstance(value, date):
        return value.isoformat()
    item = getattr(value, "item", None)  # numpy scalar
    return item() if item is not None else value


class Oracle:
    def __init__(self):
        self._db = sqlite3.connect(":memory:")

    def close(self) -> None:
        self._db.close()

    def create(self, name: str, columns) -> None:
        spec = ", ".join(
            f"{column} {_SQLITE_TYPES[kind]}" for column, kind in columns
        )
        self._db.execute(f"CREATE TABLE {name} ({spec})")

    def insert(self, name: str, rows: list) -> None:
        if not rows:
            return
        marks = ", ".join("?" * len(rows[0]))
        self._db.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(_plain(value) for value in row) for row in rows],
        )

    def load(self, table) -> None:
        self.create(table.name, table.columns)
        self.insert(table.name, table.rows)

    def query(self, text: str) -> list:
        return self._db.execute(to_sqlite(text)).fetchall()


def _sort_key(row: tuple, float_columns: set):
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


def rows_match(actual: list, expected: list) -> bool:
    """Multiset equality of two row lists under the float tolerance."""
    if len(actual) != len(expected):
        return False
    if not actual:
        return True
    left = [tuple(_plain(value) for value in row) for row in actual]
    right = [tuple(_plain(value) for value in row) for row in expected]
    width = len(left[0])
    if any(len(row) != width for row in left + right):
        return False
    float_columns = {
        index
        for row in left + right
        for index, value in enumerate(row)
        if isinstance(value, float)
    }
    try:
        left.sort(key=lambda row: _sort_key(row, float_columns))
        right.sort(key=lambda row: _sort_key(row, float_columns))
    except TypeError:  # a column mixes incomparable types across sides
        return False
    for got, want in zip(left, right):
        for index in range(width):
            a, b = got[index], want[index]
            if index in float_columns and a is not None and b is not None:
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    return False
            elif a != b:
                return False
    return True


def is_sorted(rows: list, column: int, descending: bool = False) -> bool:
    values = [row[column] for row in rows]
    if descending:
        values.reverse()
    return all(a <= b for a, b in zip(values, values[1:]))
