"""A cached table returns the values an external one does (DESIGN §16).

The memstore writes a column in the format exchanges ship and keeps the
smallest of its encodings; these pin what that must not change: the sign
of a zero (run-length and dictionary forms compare doubles by their
bits, so ``-0.0`` is not ``0.0``), and an integer the schema's array
cannot hold (the column is then a list of Python ints, as an exchange
types it, instead of failing the load).  Every way into a table types a
column once, by its declared type: a value of another type fails the
load for both table kinds alike, and a load writes its batches' columns
without building a row tuple.
"""

import math
from datetime import date, datetime

import pytest

from repro import SharkContext
from repro.columnar.batch import ColumnBatch
from repro.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    TIMESTAMP,
    Schema,
)
from repro.errors import TypeMismatchError
from repro.sql import physical
from tests.oracle import assert_rows_match, sqlite_rows
from tests.conftest import stored_blocks

_ZEROS = {
    "runs": [0.0, -0.0, 0.0, 0.0, 0.0],
    "dictionary": [-0.0, 0.0, 1.5, 2.5] * 2,
    "one run each": [-0.0] * 6 + [0.0] * 6,
}


def _both(data_type, values):
    """Rows of ``SELECT x`` from a cached and an external table holding
    ``values``, each loaded as one block."""
    shark = SharkContext(num_workers=2)
    out = []
    for name, cached in (("cached", True), ("external", False)):
        shark.create_table(name, Schema.of(("x", data_type)), cached=cached)
        shark.load_rows(name, [(value,) for value in values], num_partitions=1)
        out.append(shark.sql(f"SELECT x FROM {name}").rows)
    return out


@pytest.mark.parametrize("values", list(_ZEROS.values()), ids=list(_ZEROS))
def test_a_cached_double_keeps_the_sign_of_zero(values):
    cached, external = _both(DOUBLE, values)
    signs = [math.copysign(1.0, value) for value in values]
    assert [math.copysign(1.0, x) for x, in cached] == signs
    assert [math.copysign(1.0, x) for x, in external] == signs
    assert list(map(repr, cached)) == list(map(repr, external))


@pytest.mark.parametrize("data_type", [INT, BIGINT], ids=str)
@pytest.mark.parametrize(
    "values",
    [
        [2**40, 1],  # beyond int32
        [2**70, 1, None],  # beyond int64
        [-(2**63), 2**63 - 1, 5],
    ],
    ids=["int32", "int64", "extremes"],
)
def test_an_int_beyond_the_schema_array_loads(data_type, values):
    cached, external = _both(data_type, values)
    assert cached == external == [(value,) for value in values]


#: Every type, a NULL in each column, -0.0 and an INT beyond int32.
_WIDE = Schema.of(
    ("i", INT), ("l", BIGINT), ("f", DOUBLE), ("s", STRING),
    ("b", BOOLEAN), ("d", DATE), ("t", TIMESTAMP),
)
_WIDE_ROWS = [
    (1, 2**40, -0.0, "a", True, date(2000, 1, 1), datetime(2000, 1, 1, 12)),
    (None, None, None, None, None, None, None),
    (2**40, -(2**63), 2.5, "", False, date(1999, 12, 31),
     datetime(1999, 1, 1)),
    (3, 5, 0.0, "b", None, date(2000, 1, 1), None),
    # Strings an external table's text holds only escaped.
    (4, 6, 1.0, "a\nb", True, None, None),
    (5, 7, 2.0, "\\N", False, None, None),
    (6, 8, 3.0, "x\x01y\\n", None, None, None),
]


def _iso(rows):
    """Timestamps as the text sqlite keeps them as."""
    return [
        tuple(v.isoformat(" ") if isinstance(v, datetime) else v for v in row)
        for row in rows
    ]


def test_insert_and_ctas_of_a_wide_int():
    shark = SharkContext(num_workers=2)
    for name, cached in (("c", True), ("e", False)):
        shark.create_table(name, _WIDE, cached=cached)
        shark.load_rows(name, _WIDE_ROWS, num_partitions=2)
        shark.sql(
            f"INSERT INTO {name} VALUES "
            "(1099511627776, 1, 1.5, 'x', TRUE, NULL, NULL), "
            "(1, NULL, NULL, NULL, NULL, NULL, NULL)"
        )
    names = ["c", "e"]
    for source in ("c", "e"):
        for cached in (True, False):
            name = f"{source}_{'cached' if cached else 'external'}"
            props = " TBLPROPERTIES ('shark.cache' = 'true')" * cached
            shark.sql(f"CREATE TABLE {name}{props} AS SELECT * FROM {source}")
            # ... and INSERT ... SELECT into an empty table of each kind.
            shark.create_table(f"{name}_insert", _WIDE, cached=cached)
            shark.sql(f"INSERT INTO {name}_insert SELECT * FROM {source}")
            names += [name, f"{name}_insert"]
    rows = _WIDE_ROWS + [
        (1099511627776, 1, 1.5, "x", True, None, None),
        (1, None, None, None, None, None, None),
    ]
    want = sqlite_rows("SELECT * FROM t", {"t": (_WIDE.names, _iso(rows))})
    for name in names:
        got = shark.sql(f"SELECT * FROM {name}").rows
        # Cached == external, value for value (1 is not 1.0, nor 0.0 -0.0).
        assert sorted(map(repr, got)) == sorted(map(repr, rows)), name
        assert_rows_match(_iso(got), want, context=name)


# An external table's text writes a STRING's backslash, newline and field
# delimiter escaped (Hive's ESCAPED BY '\\'); unescaped, each of these
# read back as other rows.
def test_a_newline_in_an_external_string_is_not_a_row():
    shark = SharkContext(num_workers=2)
    shark.create_table("e", Schema.of(("s", STRING)), cached=False)
    shark.load_rows("e", [("a\nb",)], num_partitions=1)
    assert shark.sql("SELECT s FROM e").rows == [("a\nb",)]
    assert shark.sql("SELECT COUNT(*) FROM e").rows == [(1,)]


def test_ctas_into_an_external_table_keeps_the_null_tokens_text():
    shark = SharkContext(num_workers=2)
    shark.create_table("c", Schema.of(("s", STRING)), cached=True)
    shark.load_rows("c", [("a\nb",), ("\\N",), (None,)], num_partitions=1)
    shark.sql("CREATE TABLE e AS SELECT * FROM c")
    assert not shark.session.catalog.get("e").is_cached
    assert shark.sql("SELECT s FROM e").rows == [("a\nb",), ("\\N",), (None,)]


def test_a_delimiter_in_an_external_string_leaves_later_scans_whole():
    shark = SharkContext(num_workers=2)
    shark.create_table("e", Schema.of(("s", STRING), ("n", INT)), cached=False)
    shark.load_rows("e", [("x\x01y", 1), ("\\", 2)], num_partitions=1)
    shark.load_rows("e", [("z", 3)], num_partitions=1)
    assert shark.sql("SELECT s, n FROM e").rows == [
        ("x\x01y", 1), ("\\", 2), ("z", 3)
    ]


#: Per declared type: a value it stores, and values it does not take.
_MISTYPED = {
    "string-int": (STRING, "ok", [5]),
    "string-mixed": (STRING, "ok", [5, "x"]),
    "date-datetime": (DATE, date(2000, 1, 1), [datetime(2000, 1, 1, 12)]),
    "int-bool-null": (INT, 7, [True, None]),
    "int-bool-int": (INT, 7, [True, 3]),
    "boolean-int": (BOOLEAN, True, [1]),
    "double-str": (DOUBLE, 2.5, ["1.5"]),
}


def _state(shark, name):
    """What a failed load must leave as it was: the table's rows, its
    blocks (cached) or its file (external), and every worker's blocks."""
    entry = shark.session.catalog.get(name)
    if entry.is_cached:
        shape = [(b.rdd.id, b.split, b.rows) for b in entry.cached_rdd.blocks]
    else:
        stored = shark.store.file(entry.path)
        shape = [
            shark.store.read_block(entry.path, i)
            for i in range(stored.num_blocks)
        ]
    workers = stored_blocks(shark)
    return shark.sql(f"SELECT * FROM {name}").rows, shape, workers


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "external"])
@pytest.mark.parametrize(
    "data_type,good,bad", list(_MISTYPED.values()), ids=list(_MISTYPED)
)
def test_a_mistyped_load_is_refused_and_writes_nothing(
    cached, data_type, good, bad
):
    shark = SharkContext(num_workers=2)
    shark.create_table("t", Schema.of(("x", data_type)), cached=cached)
    shark.load_rows("t", [(good,), (None,)], num_partitions=1)
    before = _state(shark, "t")
    # The first task's split is well typed: its block must go too.
    rows = [(good,)] * len(bad) + [(value,) for value in bad]
    with pytest.raises(TypeMismatchError, match="column x"):
        shark.load_rows("t", rows, num_partitions=2)
    assert _state(shark, "t") == before
    assert before[0] == [(good,), (None,)]


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "external"])
def test_a_mistyped_insert_select_is_refused_and_writes_nothing(cached):
    shark = SharkContext(num_workers=2)
    shark.create_table("t", Schema.of(("x", INT)), cached=cached)
    shark.load_rows("t", [(7,), (None,)], num_partitions=1)
    shark.create_table("src", Schema.of(("s", STRING)), cached=True)
    shark.load_rows("src", [("a",), ("b",), ("c",)], num_partitions=2)
    before = _state(shark, "t")
    with pytest.raises(TypeMismatchError, match="column x"):
        shark.sql("INSERT INTO t SELECT s FROM src")
    assert _state(shark, "t") == before
    assert before[0] == [(7,), (None,)]


@pytest.mark.parametrize("values", [[1, 2.5, None], [1, 2.5]])
def test_a_double_column_widens_its_ints(values):
    cached, external = _both(DOUBLE, values)
    want = [(None if v is None else float(v),) for v in values]
    assert list(map(repr, cached)) == list(map(repr, external))
    assert list(map(repr, cached)) == list(map(repr, want))


def test_loads_build_no_tuple(monkeypatch):
    """CTAS over a filtered, projected cached table, CACHE TABLE of an
    external table, UNCACHE and INSERT ... SELECT into either kind hand
    the writer batches: columns in, columns out."""
    shark = SharkContext(num_workers=2)
    rows = [(i, f"k{i % 3}", i * 0.5) for i in range(40)]
    schema = Schema.of(("a", INT), ("k", STRING), ("v", DOUBLE))
    for name, cached in (
        ("c", True), ("e", False), ("u", True), ("ic", True), ("ie", False)
    ):
        shark.create_table(name, schema, cached=cached)
        shark.load_rows(name, rows, num_partitions=3)

    def refuse(*args, **kwargs):
        raise AssertionError("a load built row tuples")

    with monkeypatch.context() as patched:
        patched.setattr(physical, "rows_of", refuse)
        patched.setattr(ColumnBatch, "materialize_rows", refuse)
        shark.sql(
            "CREATE TABLE f TBLPROPERTIES ('shark.cache' = 'true') "
            "AS SELECT k, a * 2 AS a2 FROM c WHERE a > 10"
        )
        shark.sql("CACHE TABLE e")
        shark.sql("UNCACHE TABLE u")
        for name in ("ic", "ie"):
            status = shark.sql(
                f"INSERT INTO {name} SELECT a + 100, k, v FROM c WHERE a < 5"
            )
            assert status.scalar() == f"inserted 5 rows into {name}"
    assert sorted(shark.sql("SELECT * FROM f").rows) == sorted(
        (k, a * 2) for a, k, __ in rows if a > 10
    )
    for name in ("ic", "ie"):
        assert shark.sql(f"SELECT * FROM {name}").rows == rows + [
            (a + 100, k, v) for a, k, v in rows if a < 5
        ]
    for name in ("e", "u"):
        assert sorted(shark.sql(f"SELECT * FROM {name}").rows) == rows
    catalog = shark.session.catalog
    assert catalog.get("e").is_cached and not catalog.get("u").is_cached
