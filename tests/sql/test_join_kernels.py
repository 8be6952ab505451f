"""Equi-joins against two references that share nothing with the kernels.

* The one join kernel (``physical.JoinProbe`` over a ``JoinBuild``)
  against the per-row ``_emit_joined`` (the Hive baseline's row join
  before it ran on the batch operators, kept here as the reference):
  as a map-join link — inner / left / right x unique and duplicate build
  keys x residual x composite keys x empty sides, rows in identical
  order — and as the batch cogroup, full joins too, as multisets.
* Every join strategy (broadcast, shuffle, PDE-pre-shuffled,
  co-partitioned) over cached tables' column blocks and external tables'
  text rows, and ``baselines.hive``, against stdlib ``sqlite3`` on the
  same rows (``tests/oracle.py``), FULL JOIN emulated — including the
  NULL-key cases:
  an equi-join key with a NULL component matches nothing; inner drops the
  row, outer NULL-extends it; and with DATE keys (datetime64 vectors):
  joins, GROUP BY, BETWEEN / IN / IS NULL, MIN / MAX / COUNT(DISTINCT)
  and ORDER BY ... DESC with NULLs.
* The operators that have no row twin to be compared with any more
  (WHERE / SELECT / GROUP BY above an exchange or an external table,
  DISTINCT, LIMIT, UNION ALL, IN-subqueries, the cross join) against
  ``sqlite3``: cached and external tables, NULLs in every column, empty
  inputs.
"""

from __future__ import annotations

from collections import Counter
from datetime import date, timedelta
from functools import partial
from typing import Callable, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.columnar.batch import ColumnBatch
from repro.datatypes import DATE, INT, STRING, Schema
from repro.engine.partitioner import HashPartitioner
from repro.obs.planquality import OperatorStamp
from repro.sql import physical
from repro.sql.codegen import (
    compile_vector_expression,
    compile_vector_predicate,
)
from repro.sql.expressions import BoundColumn, BoundComparison, BoundExpr
from repro.sql.planner import PlannerConfig

from tests.oracle import iso_rows, oracle, sqlite_rows

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
def _cases(draw, cogroup=False):
    """A join of two small row sets; ``cogroup``: the left side streams
    and the join may be outer on either side."""
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
            [("inner", True), ("left", True), ("right", True), ("full", True)]
            if cogroup
            else [
                ("inner", True), ("inner", False),
                ("left", True), ("right", False),
            ]
        )
    )
    return (
        stream, build, len(columns), join_type, stream_is_left,
        draw(st.booleans()),
    )


def _emit_joined(
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    num_keys: int = 1,
) -> Callable[[tuple], list]:
    """The rows one cogrouped ``(key, (left rows, right rows))`` joins
    to.  An equi-join key with a NULL component equals nothing — not
    even another NULL."""
    left_nulls = (None,) * left_width
    right_nulls = (None,) * right_width

    def emit(pair: tuple) -> list:
        key, (left_rows, right_rows) = pair
        null_key = key is None if num_keys == 1 else None in key
        out: list[tuple] = []
        if left_rows and right_rows and not null_key:
            for left_row in left_rows:
                matched = False
                for right_row in right_rows:
                    combined = tuple(left_row) + tuple(right_row)
                    if residual is None or residual.eval(combined) is True:
                        out.append(combined)
                        matched = True
                if not matched and join_type in ("left", "full"):
                    out.append(tuple(left_row) + right_nulls)
            if join_type in ("right", "full"):
                for right_row in right_rows:
                    matched = any(
                        residual is None
                        or residual.eval(tuple(lr) + tuple(right_row)) is True
                        for lr in left_rows
                    )
                    if not matched:
                        out.append(left_nulls + tuple(right_row))
            return out
        if join_type in ("left", "full"):
            out.extend(tuple(row) + right_nulls for row in left_rows)
        if join_type in ("right", "full"):
            out.extend(left_nulls + tuple(row) for row in right_rows)
        return out

    return emit


def _column(index: int, kind, name: str) -> BoundColumn:
    return BoundColumn(index, kind, name)


def _probe(keys, join_type, stream_is_left, residual, width, stream_keys=None):
    """The planner's ``_join_probe`` by hand: key kernels, the residual
    as a keep-mask kernel, no subtree of either interpreted."""
    compiled = [compile_vector_expression(key) for key in keys]
    predicate, interpreted = (None, 0)
    if residual is not None:
        predicate, interpreted = compile_vector_predicate(residual)
    assert interpreted + sum(count for __, count in compiled) == 0
    kernels = [kernel for kernel, __ in compiled]
    probe = physical.JoinProbe(
        stream_keys or kernels, stream_is_left, join_type, predicate, width
    )
    return probe, kernels


def _broadcast_link(
    ctx, build_rows, keys, join_type, stream_is_left, residual, width
):
    probe, kernels = _probe(keys, join_type, stream_is_left, residual, width)
    build = ColumnBatch.from_rows(build_rows, width)
    __, link = physical.broadcast_link(
        ctx, build, [kernel(build) for kernel in kernels], probe
    )
    return link


def _reference(stream, build, num_keys, join_type, stream_is_left, residual):
    """``_emit_joined`` fed one stream row at a time: stream order, and
    per stream row its build matches in build order."""
    width = num_keys + 2
    emit = _emit_joined(join_type, width, width, residual, num_keys)
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


def _bound(case):
    """The key columns and the residual of a drawn case, bound."""
    stream, build, num_keys, __, __, with_residual = case
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
    return keys, residual, width


@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_probe_equals_emit_joined_row_for_row(case):
    stream, build, num_keys, join_type, stream_is_left, __ = case
    keys, residual, width = _bound(case)
    ctx = SharkContext(num_workers=1).engine
    link = _broadcast_link(
        ctx, build, keys, join_type, stream_is_left, residual, width
    )
    got = link(ColumnBatch.from_rows(stream, width)).materialize_rows()
    want = _reference(
        stream, build, num_keys, join_type, stream_is_left, residual
    )
    assert list(map(repr, got)) == list(map(repr, want))
    ctx.release_broadcast_accounting()
    assert ctx.memory.live_bytes("execution") == 0


@settings(max_examples=200, deadline=None)
@given(case=_cases(cogroup=True), appended=st.booleans())
def test_cogroup_equals_emit_joined_as_multisets(case, appended):
    """One partition of the batch cogroup — a side with no batch at all
    when it is empty, the key columns ``appended`` after the row as an
    exchange computes them or read in place — against ``_emit_joined``
    over the same rows grouped by key."""
    left, right, num_keys, join_type, __, __ = case
    keys, residual, width = _bound(case)
    ordinals = [key.index for key in keys]
    if appended:
        ordinals = list(range(width, width + num_keys))
    ctx = SharkContext(num_workers=1).engine

    def side(rows):
        if not rows:
            return ctx.parallelize([], 1)
        batch = ColumnBatch.from_rows(rows, width)
        if appended:
            batch = ColumnBatch(
                batch.entries + [batch.vector(k.index) for k in keys],
                batch.num_rows,
            )
        return ctx.parallelize([batch], 1)

    probe, __ = _probe(
        keys, join_type, True, residual, width,
        [partial(ColumnBatch.vector, ordinal=i) for i in ordinals],
    )
    joined = physical.cogroup_join(
        ctx, side(left), side(right), HashPartitioner(1), probe, ordinals,
        width, "join", OperatorStamp("join", "vectorized", 0),
    )
    got = physical.rows_of(joined).collect()

    key_of = (
        (lambda row: row[1])
        if num_keys == 1
        else (lambda row: tuple(row[1 : 1 + num_keys]))
    )
    groups: dict = {}
    for index, rows in enumerate((left, right)):
        for row in rows:
            groups.setdefault(key_of(row), ([], []))[index].append(row)
    emit = _emit_joined(join_type, width, width, residual, num_keys)
    want = [row for pair in groups.items() for row in emit(pair)]
    assert Counter(map(repr, got)) == Counter(map(repr, want))


def test_numeric_probe_meets_keys_of_another_kind():
    """A build side keyed by a NULL-free integer column bisects; a probe
    column it cannot bisect (floats, NULLs, a list) is looked up by value
    — ``1 == 1.0`` as in the row join's dict."""
    ctx = SharkContext(num_workers=1).engine
    key = [_column(0, INT, "k")]
    link = _broadcast_link(
        ctx, [(1, "one"), (2, "two")], key, "left", True, None, 2
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
# Every strategy, both sources and the Hive baseline == sqlite3
# ---------------------------------------------------------------------------

_A = [(1, "a1"), (None, "anull"), (2, "a2"), (2, "a2b"), (4, "a4")]
_B = [(1, "b1"), (None, "bnull"), (3, "b3"), (2, "b2"), (2, "b2b")]


def _tables(a_rows, b_rows) -> dict:
    return {"a": (("k", "v"), a_rows), "b": (("k", "v"), b_rows)}


def _sqlite_rows(statement: str, a_rows, b_rows) -> list:
    return sqlite_rows(statement, _tables(a_rows, b_rows))


def _oracle(statement: str, a_rows, b_rows) -> Counter:
    return oracle(statement, _tables(a_rows, b_rows))


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
    strategy: str, a_rows, b_rows, key_type=INT, cached=True
) -> SharkContext:
    """``a`` and ``b`` over the rows; ``cached`` off makes them (or, for
    ``copartitioned``, the tables they are distributed from) external
    text files, read as rows and batched above the scan."""
    config = PlannerConfig(
        # A threshold below nothing: every keyed join shuffles — an empty
        # external table weighs 0 bytes, a cached one its block headers,
        # and a threshold of 0 would broadcast the first only ...
        broadcast_threshold_bytes={"shuffle": -1, "pde": 0}.get(
            strategy, 4 * 1024 * 1024
        ),
        # ... and PDE pre-shuffles a side to find out what to do, when no
        # static estimate says so first (an empty side: broadcast it).
        enable_static_join_estimates=strategy != "pde",
    )
    shark = SharkContext(num_workers=2, config=config)
    schema = Schema.of(("k", key_type), ("v", STRING))
    if strategy != "copartitioned":
        for name, rows in (("a", a_rows), ("b", b_rows)):
            shark.create_table(name, schema, cached=cached)
            shark.load_rows(name, rows, num_partitions=2)
        return shark
    for name, rows in (("raw_a", a_rows), ("raw_b", b_rows)):
        shark.create_table(name, schema, cached=cached)
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


#: Where the sides come from: cached tables' column blocks ("vec") or
#: external tables' text rows ("row").
_SOURCES = pytest.mark.parametrize("cached", [True, False], ids=["vec", "row"])


@_SOURCES
@pytest.mark.parametrize(
    "strategy", ["broadcast", "shuffle", "pde", "copartitioned"]
)
@pytest.mark.parametrize("syntax", sorted(_ORACLE_SQL))
def test_null_keys_match_nothing(strategy, cached, syntax):
    shark = _shark(strategy, _A, _B, cached=cached)
    result = shark.sql(_SELECT + f"a {syntax} b" + _ON)
    strategies = {d.strategy for d in result.report.join_decisions}
    # One join kernel under every strategy and source.
    assert ("join", "vectorized") in result.report.operator_modes
    if strategy == "copartitioned" and syntax == "JOIN":
        assert strategies == {"copartitioned"}
        # All-narrow: the cogroup read both tables in place — no map
        # task ran (the stages of the tables' own lineage are listed).
        assert not any(
            stage.is_shuffle_map and stage.num_tasks
            for stage in shark.engine.profiles[-1].stages
        )
    elif strategy == "broadcast" and syntax != "FULL JOIN":
        assert strategies <= {"broadcast_left", "broadcast_right"}
    elif strategy in ("shuffle", "pde"):
        assert strategies == {"shuffle"}
        # The cogroup read the side PDE had shuffled already, narrowly (a
        # FULL JOIN has no side to broadcast, so nothing was pre-shuffled).
        pre_shuffled = any("pre-shuffled" in n for n in result.report.notes)
        assert pre_shuffled == (strategy == "pde" and syntax != "FULL JOIN")
    assert Counter(result.rows) == _oracle(_ORACLE_SQL[syntax], _A, _B)
    assert (None, "anull", None, "bnull") not in result.rows


@pytest.mark.parametrize("syntax", sorted(_ORACLE_SQL))
def test_hive_baseline_null_keys_match_nothing(syntax):
    shark = _shark("broadcast", _A, _B)

    hive = HiveExecutor(shark.session)
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
@given(
    a_rows=_TABLE_ROWS,
    b_rows=_TABLE_ROWS,
    syntax=st.sampled_from(sorted(_ORACLE_SQL)),
    strategy=st.sampled_from(["broadcast", "shuffle"]),
    residual=st.sampled_from(["", " AND a.v <= b.v"]),
)
# An empty external side weighed 0 bytes and was broadcast under the
# shuffle strategy's threshold of 0, where the cached one was shuffled.
@example(
    a_rows=[], b_rows=[(1, "x"), (None, "x")],
    syntax="RIGHT JOIN", strategy="shuffle", residual="",
)
# The broadcast side is the smaller by each source's own estimate: here
# ``a`` in memory (149 B against 150) and ``b`` as text (4 B against 5).
@example(
    a_rows=[(None, "x")], b_rows=[(0, "x")],
    syntax="JOIN", strategy="broadcast", residual="",
)
def test_joins_equal_sqlite(a_rows, b_rows, syntax, strategy, residual):
    """Random sides (empty ones, duplicate and NULL keys) through every
    strategy and source, with and without a residual, as sqlite answers.

    The contract on order: a join's output order is a function of its
    plan and its input's order, so two sources holding the same rows in
    the same partitions and planned alike return the same list.  Under
    the shuffle strategy they always plan alike.  Under broadcast each
    source broadcasts the side its own size estimate finds smaller (of
    the sides its join type may broadcast), and block and text sizes
    may rank the two sides apart."""
    if syntax == "FULL JOIN":
        residual = ""  # the emulation above has no slot for one
    want = _oracle(
        _ORACLE_SQL[syntax].replace(_ON, _ON + residual), a_rows, b_rows
    )
    ordered = []
    plans = []
    for cached in (True, False):
        shark = _shark(strategy, a_rows, b_rows, cached=cached)
        result = shark.sql(_SELECT + f"a {syntax} b" + _ON + residual)
        assert Counter(result.rows) == want, (strategy, cached)
        ordered.append(result.rows)
        plans.append([d.strategy for d in result.report.join_decisions])
        if strategy == "broadcast":
            (decision,) = result.report.join_decisions
            assert decision.strategy == _smaller_side(decision, syntax)
    if strategy == "shuffle":
        assert plans[0] == plans[1]
    # Planned alike, the two sources agree on the order too.
    if plans[0] == plans[1]:
        assert ordered[0] == ordered[1]


#: The sides each join type may broadcast: never the side it preserves.
_BROADCASTABLE = {
    "JOIN": ("left", "right"),
    "LEFT JOIN": ("right",),
    "RIGHT JOIN": ("left",),
    "FULL JOIN": (),
}


def _smaller_side(decision, syntax: str) -> str:
    """The strategy a broadcast-friendly threshold gives: the smaller
    broadcastable side by the decision's estimates (a tie: the left),
    and a shuffle when neither side may be broadcast."""
    sizes = {"left": decision.left_bytes, "right": decision.right_bytes}
    sides = _BROADCASTABLE[syntax]
    if not sides:
        return "shuffle"
    return "broadcast_" + min(sides, key=lambda side: (sizes[side], side))


# ---------------------------------------------------------------------------
# The operators with no row twin left == sqlite3
# ---------------------------------------------------------------------------

_NOT_IN_SUBQUERY = "SELECT k, v FROM a WHERE k NOT IN (SELECT k FROM b)"
#: Multiset-equal to sqlite as they stand (no statement meets a dialect
#: difference of ``tests/oracle.py``).
_OPERATOR_STATEMENTS = [
    # WHERE + a computed SELECT list over a GROUP BY result.
    "SELECT t.k + 1, t.n * 2 FROM "
    "(SELECT k, COUNT(*) AS n, MIN(v) AS m FROM a GROUP BY k) t "
    "WHERE t.n > 1 OR t.m = 'x'",
    "SELECT k, COUNT(*), MAX(v) FROM a GROUP BY k HAVING COUNT(*) > 1",
    "SELECT v, SUM(k), COUNT(k) FROM a GROUP BY v HAVING SUM(k) >= 2",
    # GROUP BY over a join's output.
    "SELECT a.k, COUNT(*), MIN(b.v) FROM a JOIN b ON a.k = b.k GROUP BY a.k",
    "SELECT b.v, COUNT(a.k), SUM(a.k) FROM a LEFT JOIN b ON a.k = b.k "
    "GROUP BY b.v",
    # A join whose side is a derived aggregate / a SELECT DISTINCT.
    "SELECT a.k, a.v, t.n FROM a JOIN "
    "(SELECT k, COUNT(*) AS n FROM b GROUP BY k) t ON a.k = t.k",
    "SELECT a.k, a.v FROM a JOIN (SELECT DISTINCT k FROM b) t ON a.k = t.k",
    "SELECT t.k, b.v FROM (SELECT DISTINCT k FROM a) t "
    "LEFT JOIN b ON t.k = b.k",
    "SELECT DISTINCT k FROM a",
    "SELECT DISTINCT k, v FROM a",
    "SELECT DISTINCT v FROM a WHERE k IS NOT NULL",
    "SELECT k FROM a LIMIT 0",
    # UNION ALL feeding a GROUP BY.
    "SELECT u.k, COUNT(*) FROM "
    "(SELECT k FROM a UNION ALL SELECT k FROM b) u GROUP BY u.k",
    "SELECT u.v, MAX(u.k) FROM (SELECT k, v FROM a WHERE k > 0 UNION ALL "
    "SELECT k, v FROM b) u WHERE u.v IS NOT NULL GROUP BY u.v",
    # IN / NOT IN subqueries: a NULL on either side comes with the rows.
    "SELECT k, v FROM a WHERE k IN (SELECT k FROM b)",
    _NOT_IN_SUBQUERY,
    "SELECT k, v FROM a WHERE v NOT IN (SELECT v FROM b WHERE k > 1)",
    "SELECT k, COUNT(*) FROM a WHERE k IN "
    "(SELECT k FROM b WHERE v IS NOT NULL) GROUP BY k",
    # Hive's `%` (the dividend's sign) and IN lists holding a NULL (no
    # match is NULL, under NOT too).
    "SELECT k, k % 3, (k - 7) % 3, 10 % (k - 3), -7 % (k + 1) FROM a",
    "SELECT k, v FROM a WHERE (k - 2) % 2 = -1",
    "SELECT k, v FROM a WHERE k IN (1, NULL)",
    "SELECT k, v FROM a WHERE k NOT IN (1, NULL)",
    "SELECT k, k IN (2, NULL), k NOT IN (2, NULL), v NOT IN ('x', NULL) "
    "FROM a",
    # A cross join with a residual.
    "SELECT a.k, a.v, b.k FROM a, b WHERE a.k < b.k",
    "SELECT a.v, COUNT(*) FROM a, b WHERE a.k <> b.k OR b.v = 'x' "
    "GROUP BY a.v",
]
#: Totally ordered (NULLs first ascending: sqlite's order too), so equal
#: as lists.
_OPERATOR_ORDERED = [
    "SELECT k, v FROM a ORDER BY k, v LIMIT 3",
    "SELECT k, v FROM a ORDER BY k DESC, v DESC LIMIT 2",
    "SELECT k, v FROM a ORDER BY v, k LIMIT 0",
    "SELECT k, COUNT(*) AS n FROM a GROUP BY k ORDER BY n DESC, k LIMIT 2",
    "SELECT t.v, t.k + 1 FROM "
    "(SELECT k, v FROM a UNION ALL SELECT k, v FROM b) t "
    "ORDER BY t.v DESC, t.k LIMIT 4",
]
_NULLABLE_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
    ),
    max_size=8,
)


def _assert_operators_equal_sqlite(a_rows, b_rows, strategy):
    """Every statement above, over cached and over external tables."""
    want = [
        _oracle(statement, a_rows, b_rows)
        for statement in _OPERATOR_STATEMENTS
    ] + [
        _sqlite_rows(statement, a_rows, b_rows)
        for statement in _OPERATOR_ORDERED
    ]
    for cached in (True, False):
        shark = _shark(strategy, a_rows, b_rows, cached=cached)
        where = (strategy, "cached" if cached else "external")
        for statement, rows in zip(_OPERATOR_STATEMENTS, want):
            assert Counter(shark.sql(statement).rows) == rows, (
                statement, where
            )
        for statement, rows in zip(
            _OPERATOR_ORDERED, want[len(_OPERATOR_STATEMENTS):]
        ):
            assert shark.sql(statement).rows == rows, (statement, where)


@settings(max_examples=30, deadline=None)
@given(a_rows=_NULLABLE_ROWS, b_rows=_NULLABLE_ROWS, data=st.data())
def test_operators_equal_sqlite(a_rows, b_rows, data):
    strategy = data.draw(st.sampled_from(["broadcast", "shuffle", "pde"]))
    _assert_operators_equal_sqlite(a_rows, b_rows, strategy)


@pytest.mark.parametrize(
    "a_rows,b_rows",
    [([], []), ([], _B), (_A, [])],
    ids=["both_empty", "a_empty", "b_empty"],
)
def test_operators_equal_sqlite_over_an_empty_input(a_rows, b_rows):
    _assert_operators_equal_sqlite(a_rows, b_rows, "shuffle")


def test_operators_equal_sqlite_with_null_keys_on_both_sides():
    """Always a NULL in the IN-subquery's output: ``k NOT IN (SELECT k
    FROM b)`` keeps no row, as in sqlite."""
    assert not _sqlite_rows(_NOT_IN_SUBQUERY, _A, _B)
    _assert_operators_equal_sqlite(_A, _B, "broadcast")


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


@_SOURCES
@pytest.mark.parametrize("strategy", ["broadcast", "shuffle", "copartitioned"])
@pytest.mark.parametrize("syntax", sorted(_ORACLE_SQL))
def test_date_keys_join_like_sqlite(strategy, cached, syntax):
    a_rows, b_rows = _dated(_A), _dated(_B)
    shark = _shark(strategy, a_rows, b_rows, DATE, cached=cached)
    rows = shark.sql(_SELECT + f"a {syntax} b" + _ON).rows
    assert Counter(iso_rows(rows)) == _oracle(
        _ORACLE_SQL[syntax], a_rows, b_rows
    )
    # A collected row holds dates, never a numpy scalar.
    assert {type(v) for row in rows for v in row} <= {date, str, type(None)}


@settings(max_examples=15, deadline=None)
@given(a_rows=_TABLE_ROWS, b_rows=_TABLE_ROWS)
def test_date_predicates_groups_and_sorts_equal_sqlite(a_rows, b_rows):
    a_rows, b_rows = _dated(a_rows), _dated(b_rows)
    sources = []
    for cached in (True, False):
        shark = _shark("broadcast", a_rows, b_rows, DATE, cached=cached)
        answers = []
        for statement in _DATE_STATEMENTS:
            rows = shark.sql(statement).rows
            assert Counter(iso_rows(rows)) == _oracle(
                statement, a_rows, b_rows
            ), (statement, cached)
            answers.append(sorted(map(repr, rows)))
        for statement in _DATE_ORDERED:
            # NULLs first ascending, last descending: sqlite's order too.
            rows = shark.sql(statement).rows
            assert iso_rows(rows) == _sqlite_rows(
                statement, a_rows, b_rows
            ), (statement, cached)
            answers.append(list(map(repr, rows)))
        sources.append(answers)
    # Both sources, repr-identically: dates stay dates either way.
    assert sources[0] == sources[1]
