"""Equi-joins against two references that share nothing with the kernels.

* The vectorized map-join link (``physical.BroadcastProbe`` over a
  ``JoinBuild``) against the per-row ``_emit_joined`` it replaces:
  inner / left / right x unique and duplicate build keys x residual x
  composite keys x empty sides, rows in identical order.
* Every join strategy (broadcast, shuffle, co-partitioned) in both
  ``vectorize`` modes, and ``baselines.hive``, against stdlib ``sqlite3``
  on the same rows — the independent oracle (ROADMAP item 6), FULL JOIN
  emulated — including the NULL-key cases: an equi-join key with a NULL
  component matches nothing; inner drops the row, outer NULL-extends it;
  and with DATE keys (datetime64 vectors): joins, GROUP BY, BETWEEN / IN /
  IS NULL, MIN / MAX / COUNT(DISTINCT) and ORDER BY ... DESC with NULLs.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SharkContext
from repro.baselines.hive import HiveExecutor
from repro.columnar.batch import ColumnBatch
from repro.datatypes import DATE, INT, STRING, Schema
from repro.sql import physical
from repro.sql.expressions import BoundColumn, BoundComparison
from repro.sql.planner import PlannerConfig

# ---------------------------------------------------------------------------
# The probe kernel == _emit_joined per stream row
# ---------------------------------------------------------------------------

_KEYS = st.one_of(st.none(), st.integers(0, 4))
_STRING_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))


def _rows(key_columns):
    """Rows of ``(id, *keys, weight)``; ids make every row distinct."""
    return st.lists(
        st.tuples(*key_columns, st.integers(0, 9)), max_size=12
    ).map(lambda rows: [(i, *row) for i, row in enumerate(rows)])


@st.composite
def _cases(draw):
    composite = draw(st.booleans())
    strings = draw(st.booleans())
    first = _STRING_KEYS if strings else _KEYS
    columns = (first, _KEYS) if composite else (first,)
    stream = draw(_rows(columns))
    if draw(st.booleans()):
        # Unique build keys, none NULL: the dimension-table shape.
        keys = draw(
            st.lists(
                st.tuples(*[c.filter(lambda k: k is not None) for c in columns]),
                unique=True,
                max_size=8,
            )
        )
        build = [(i, *key, i % 3) for i, key in enumerate(keys)]
    else:
        build = draw(_rows(columns))
    join_type, stream_is_left = draw(
        st.sampled_from(
            [("inner", True), ("inner", False), ("left", True), ("right", False)]
        )
    )
    return (
        stream, build, len(columns), join_type, stream_is_left,
        draw(st.booleans()),
    )


def _column(index: int, kind, name: str) -> BoundColumn:
    return BoundColumn(index, kind, name)


def _reference(stream, build, num_keys, join_type, stream_is_left, residual):
    """``_emit_joined`` fed one stream row at a time: stream order, and
    per stream row its build matches in build order."""
    width = num_keys + 2
    emit = physical._emit_joined(
        join_type, width, width, residual, num_keys
    )
    key_of = (
        (lambda row: row[1])
        if num_keys == 1
        else (lambda row: tuple(row[1 : 1 + num_keys]))
    )
    out = []
    for row in stream:
        key = key_of(row)
        matches = [b for b in build if key_of(b) == key]
        sides = ([row], matches) if stream_is_left else (matches, [row])
        out.extend(emit((key, sides)))
    return out


@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_probe_equals_emit_joined_row_for_row(case):
    stream, build, num_keys, join_type, stream_is_left, with_residual = case
    width = num_keys + 2
    kinds = [
        STRING if isinstance(value, str) else INT
        for value in next(
            (row[1 : 1 + num_keys] for row in stream + build if None not in row),
            (0,) * num_keys,
        )
    ]
    keys = [_column(1 + i, kinds[i], f"k{i}") for i in range(num_keys)]
    residual = None
    if with_residual:
        # left.weight <= right.weight, over the joined (left + right) row.
        residual = BoundComparison(
            "<=",
            _column(width - 1, INT, "lw"),
            _column(2 * width - 1, INT, "rw"),
        )
    ctx = SharkContext(num_workers=1).engine
    link, interpreted = physical.broadcast_probe(
        ctx,
        ColumnBatch.from_rows(build, width),
        keys,
        keys,
        join_type,
        stream_is_left,
        residual,
    )
    assert interpreted == 0
    got = link(ColumnBatch.from_rows(stream, width)).materialize_rows()
    want = _reference(
        stream, build, num_keys, join_type, stream_is_left, residual
    )
    assert list(map(repr, got)) == list(map(repr, want))
    ctx.release_broadcast_accounting()
    assert ctx.memory.live_bytes("execution") == 0


def test_numeric_probe_meets_keys_of_another_kind():
    """A build side keyed by a NULL-free integer column bisects; a probe
    column it cannot bisect (floats, NULLs, a list) is looked up by value
    — ``1 == 1.0`` as in the row join's dict."""
    ctx = SharkContext(num_workers=1).engine
    key = [_column(0, INT, "k")]
    link, __ = physical.broadcast_probe(
        ctx, ColumnBatch.from_rows([(1, "one"), (2, "two")], 2),
        key, key, "left", True, None,
    )
    stream = ColumnBatch.from_columns([[1.0, None, 2, 7.5, 1]])
    assert link(stream).materialize_rows() == [
        (1.0, 1, "one"),
        (None, None, None),
        (2, 2, "two"),
        (7.5, None, None),
        (1, 1, "one"),
    ]


# ---------------------------------------------------------------------------
# Every strategy, both modes and the Hive baseline == sqlite3
# ---------------------------------------------------------------------------

_A = [(1, "a1"), (None, "anull"), (2, "a2"), (2, "a2b"), (4, "a4")]
_B = [(1, "b1"), (None, "bnull"), (3, "b3"), (2, "b2"), (2, "b2b")]


def _sqlite_rows(statement: str, a_rows, b_rows) -> list:
    """What sqlite answers; a date is its ISO text there (which orders
    and compares as the date does) and ``DATE '...'`` that text."""
    db = sqlite3.connect(":memory:")
    try:
        for name, rows in (("a", a_rows), ("b", b_rows)):
            db.execute(f"CREATE TABLE {name} (k, v TEXT)")
            db.executemany(
                f"INSERT INTO {name} VALUES (?, ?)", _iso_rows(rows)
            )
        return db.execute(statement.replace("DATE '", "'")).fetchall()
    finally:
        db.close()


def _oracle(statement: str, a_rows, b_rows) -> Counter:
    return Counter(_sqlite_rows(statement, a_rows, b_rows))


def _iso_rows(rows) -> list:
    return [
        tuple(v.isoformat() if type(v) is date else v for v in row)
        for row in rows
    ]


_SELECT = "SELECT a.k, a.v, b.k, b.v FROM "
_ON = " ON a.k = b.k"
#: join syntax -> the statement sqlite runs (RIGHT as a mirrored LEFT,
#: FULL as LEFT plus the right rows no left row matched).
_ORACLE_SQL = {
    "JOIN": _SELECT + "a JOIN b" + _ON,
    "LEFT JOIN": _SELECT + "a LEFT JOIN b" + _ON,
    "RIGHT JOIN": _SELECT + "b LEFT JOIN a" + _ON,
    "FULL JOIN": (
        _SELECT + "a LEFT JOIN b" + _ON + " UNION ALL "
        "SELECT NULL, NULL, b.k, b.v FROM b WHERE NOT EXISTS "
        "(SELECT 1 FROM a WHERE a.k = b.k)"
    ),
}


def _shark(
    strategy: str, vectorize: bool, a_rows, b_rows, key_type=INT
) -> SharkContext:
    config = PlannerConfig(
        vectorize=vectorize,
        # A threshold of nothing: every keyed join shuffles.
        broadcast_threshold_bytes=(
            0 if strategy == "shuffle" else 4 * 1024 * 1024
        ),
    )
    shark = SharkContext(num_workers=2, config=config)
    schema = Schema.of(("k", key_type), ("v", STRING))
    if strategy != "copartitioned":
        for name, rows in (("a", a_rows), ("b", b_rows)):
            shark.create_table(name, schema, cached=True)
            shark.load_rows(name, rows, num_partitions=2)
        return shark
    for name, rows in (("raw_a", a_rows), ("raw_b", b_rows)):
        shark.create_table(name, schema, cached=True)
        shark.load_rows(name, rows, num_partitions=2)
    shark.sql(
        "CREATE TABLE a TBLPROPERTIES ('shark.cache'='true') "
        "AS SELECT * FROM raw_a DISTRIBUTE BY k"
    )
    shark.sql(
        "CREATE TABLE b TBLPROPERTIES ('shark.cache'='true', "
        "'copartition'='a') AS SELECT * FROM raw_b DISTRIBUTE BY k"
    )
    return shark


@pytest.mark.parametrize("vectorize", [True, False], ids=["vec", "row"])
@pytest.mark.parametrize("strategy", ["broadcast", "shuffle", "copartitioned"])
@pytest.mark.parametrize("syntax", sorted(_ORACLE_SQL))
def test_null_keys_match_nothing(strategy, vectorize, syntax):
    shark = _shark(strategy, vectorize, _A, _B)
    result = shark.sql(_SELECT + f"a {syntax} b" + _ON)
    strategies = {d.strategy for d in result.report.join_decisions}
    if strategy == "copartitioned" and syntax == "JOIN":
        assert strategies == {"copartitioned"}
    elif strategy == "broadcast" and syntax != "FULL JOIN":
        assert strategies <= {"broadcast_left", "broadcast_right"}
        # The map join is a link of the stream side's batch chain.
        assert ("join", "vectorized" if vectorize else "row") in (
            result.report.operator_modes
        )
    elif strategy == "shuffle":
        assert strategies == {"shuffle"}
    assert Counter(result.rows) == _oracle(_ORACLE_SQL[syntax], _A, _B)
    assert (None, "anull", None, "bnull") not in result.rows


@pytest.mark.parametrize("syntax", sorted(_ORACLE_SQL))
def test_hive_baseline_null_keys_match_nothing(syntax):
    shark = _shark("broadcast", True, _A, _B)

    def table_rows(entry):
        return shark.engine.run_job(shark.session._scan_rdd(entry), list)

    hive = HiveExecutor(
        shark.session.catalog, shark.store, shark.session.registry,
        table_rows=table_rows,
    )
    run = hive.execute(_SELECT + f"a {syntax} b" + _ON)
    assert Counter(run.rows) == _oracle(_ORACLE_SQL[syntax], _A, _B)


_TABLE_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.sampled_from(["x", "y", "z"]),
    ),
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(a_rows=_TABLE_ROWS, b_rows=_TABLE_ROWS, data=st.data())
def test_joins_equal_sqlite(a_rows, b_rows, data):
    """Random sides (empty ones, duplicate and NULL keys) through every
    strategy and mode, with and without a residual, as sqlite answers."""
    syntax = data.draw(st.sampled_from(sorted(_ORACLE_SQL)))
    strategy = data.draw(st.sampled_from(["broadcast", "shuffle"]))
    residual = data.draw(st.sampled_from(["", " AND a.v <= b.v"]))
    if syntax == "FULL JOIN":
        residual = ""  # the emulation above has no slot for one
    want = _oracle(
        _ORACLE_SQL[syntax].replace(_ON, _ON + residual), a_rows, b_rows
    )
    ordered = []
    for vectorize in (True, False):
        shark = _shark(strategy, vectorize, a_rows, b_rows)
        rows = shark.sql(_SELECT + f"a {syntax} b" + _ON + residual).rows
        assert Counter(rows) == want, (strategy, vectorize)
        ordered.append(rows)
    # The two modes agree on the order too, not only on the rows.
    assert ordered[0] == ordered[1]


# ---------------------------------------------------------------------------
# DATE keys: datetime64 vectors through every operator == sqlite3
# ---------------------------------------------------------------------------


def _dated(rows) -> list:
    """The same rows keyed by a day (pre-1970 ones too) in place of k."""
    return [
        (None if k is None else date(1969, 12, 30) + timedelta(days=k), v)
        for k, v in rows
    ]


_DATE_STATEMENTS = [
    "SELECT k, COUNT(*), MIN(v) FROM a GROUP BY k",
    "SELECT v, MIN(k), MAX(k), COUNT(DISTINCT k), COUNT(k) FROM a GROUP BY v",
    "SELECT MIN(k), MAX(k), COUNT(DISTINCT k) FROM a",
    "SELECT k, v FROM a "
    "WHERE k BETWEEN DATE '1969-12-31' AND DATE '1970-01-01'",
    "SELECT k, v FROM a WHERE k IN (DATE '1969-12-31', DATE '1970-01-03')",
    "SELECT k, v FROM a "
    "WHERE k NOT IN (DATE '1969-12-31', DATE '1970-01-03')",
    "SELECT k, v FROM a WHERE k IS NULL OR k >= DATE '1970-01-01'",
    "SELECT v FROM a WHERE k IS NOT NULL AND k <> DATE '1970-01-01'",
    "SELECT a.k, COUNT(*) FROM a JOIN b ON a.k = b.k "
    "WHERE b.k < DATE '1970-01-02' GROUP BY a.k",
]
_DATE_ORDERED = [
    "SELECT k, v FROM a ORDER BY k DESC, v",
    "SELECT k, v FROM a ORDER BY k, v DESC",
    "SELECT v, MAX(k) AS m FROM a GROUP BY v ORDER BY m DESC, v",
]


@pytest.mark.parametrize("vectorize", [True, False], ids=["vec", "row"])
@pytest.mark.parametrize("strategy", ["broadcast", "shuffle", "copartitioned"])
@pytest.mark.parametrize("syntax", sorted(_ORACLE_SQL))
def test_date_keys_join_like_sqlite(strategy, vectorize, syntax):
    a_rows, b_rows = _dated(_A), _dated(_B)
    shark = _shark(strategy, vectorize, a_rows, b_rows, DATE)
    rows = shark.sql(_SELECT + f"a {syntax} b" + _ON).rows
    assert Counter(_iso_rows(rows)) == _oracle(
        _ORACLE_SQL[syntax], a_rows, b_rows
    )
    # A collected row holds dates, never a numpy scalar.
    assert {type(v) for row in rows for v in row} <= {date, str, type(None)}


@settings(max_examples=15, deadline=None)
@given(a_rows=_TABLE_ROWS, b_rows=_TABLE_ROWS)
def test_date_predicates_groups_and_sorts_equal_sqlite(a_rows, b_rows):
    a_rows, b_rows = _dated(a_rows), _dated(b_rows)
    modes = []
    for vectorize in (True, False):
        shark = _shark("broadcast", vectorize, a_rows, b_rows, DATE)
        answers = []
        for statement in _DATE_STATEMENTS:
            rows = shark.sql(statement).rows
            assert Counter(_iso_rows(rows)) == _oracle(
                statement, a_rows, b_rows
            ), (statement, vectorize)
            answers.append(sorted(map(repr, rows)))
        for statement in _DATE_ORDERED:
            # NULLs first ascending, last descending: sqlite's order too.
            rows = shark.sql(statement).rows
            assert _iso_rows(rows) == _sqlite_rows(
                statement, a_rows, b_rows
            ), (statement, vectorize)
            answers.append(list(map(repr, rows)))
        modes.append(answers)
    # Row mode, the differential reference, repr-identically.
    assert modes[0] == modes[1]
