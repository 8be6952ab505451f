"""Differential fuzzing: Shark vs the Hive baseline vs sqlite.

Shark and the Hive baseline share a front end and the batch operators
but differ in plan shape: Shark plans one dataflow with PDE, broadcast
joins and map pruning; Hive cuts it into MapReduce jobs, shuffles every
join and writes every intermediate to the file store as text.  The
grammar reaches every cut Hive makes — GROUP BY / HAVING (over
expressions of the aggregates, ordered by one not selected), joins (one
over a HAVING subquery), DISTINCT, UNION ALL, ORDER BY ... LIMIT and
IN-subqueries.  Both share the scalar rules of ``BoundExpr.apply`` too,
so a bug there shows in neither comparison with the other: every
generated query is also held to stdlib ``sqlite3`` (``tests/oracle.py``),
which shares no code with either.  The table has a NULL in every column
and empty strings beside them (a one-column intermediate of them must
survive the file store), and the grammar reaches the rules the engines once shared wrongly: ``%``
with negative operands (Hive's truncated remainder, not Python's floored
one) and IN lists holding a NULL (no match is NULL, not FALSE — under
NOT too).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.datatypes import DOUBLE, INT, STRING, Schema

from tests.oracle import assert_rows_match, sqlite_rows

F_COLUMNS = ("k", "g", "x", "y")
F_ROWS = [
    (
        None if i % 17 == 0 else i % 23,
        None if i % 13 == 0 else "" if i % 11 == 0 else f"g{i % 5}",
        None if i % 19 == 0 else round((i * 7 % 97) / 3.0, 3),
        None if i % 7 == 0 else i % 11,
    )
    for i in range(400)
]
D_ROWS = [(i, f"label{i}") for i in range(0, 23, 2)] + [(None, "labelnull")]
TABLES = {"f": (F_COLUMNS, F_ROWS), "d": (("k", "label"), D_ROWS)}


@pytest.fixture(scope="module")
def systems():
    shark = SharkContext(num_workers=3)
    shark.create_table(
        "f",
        Schema.of(("k", INT), ("g", STRING), ("x", DOUBLE), ("y", INT)),
        cached=True,
    )
    shark.load_rows("f", F_ROWS)
    shark.create_table("d", Schema.of(("k", INT), ("label", STRING)))
    shark.load_rows("d", D_ROWS)

    hive = HiveExecutor(shark.session)
    return shark, hive


# --- tiny query grammar ----------------------------------------------------

columns = st.sampled_from(["k", "x", "y"])
int_operands = st.sampled_from(["k", "y", "(k - 12)", "(y - 6)"])
comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def remainders(draw) -> str:
    """An INT ``%`` with a negative dividend or divisor (0: NULL)."""
    divisor = draw(st.integers(-4, 4))
    return f"{draw(int_operands)} % {divisor}"


@st.composite
def in_lists(draw) -> str:
    """``[NOT] IN`` over literals, a NULL among them or not."""
    values = draw(st.lists(st.integers(-2, 25), min_size=1, max_size=3))
    options = [str(v) for v in values]
    if draw(st.booleans()):
        options.insert(draw(st.integers(0, len(options))), "NULL")
    negated = " NOT" if draw(st.booleans()) else ""
    return f"{draw(st.sampled_from(['k', 'y']))}{negated} IN ({', '.join(options)})"


@st.composite
def predicates(draw) -> str:
    kind = draw(st.integers(0, 7))
    if kind == 0:
        column = draw(columns)
        op = draw(comparison_ops)
        value = draw(st.integers(-5, 30))
        return f"{column} {op} {value}"
    if kind == 1:
        value = draw(st.integers(0, 5))
        return f"g = 'g{value}'"
    if kind == 2:
        low = draw(st.integers(0, 15))
        span = draw(st.integers(0, 10))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{draw(columns)} {negated}BETWEEN {low} AND {low + span}"
    if kind == 3:
        return draw(in_lists())
    if kind == 4:
        op = draw(comparison_ops)
        return f"{draw(remainders())} {op} {draw(st.integers(-3, 3))}"
    if kind == 5:
        return f"g {draw(st.sampled_from(['IS NULL', 'IS NOT NULL']))}"
    if kind == 6:
        return f"NOT ({draw(in_lists())})"
    return "g LIKE 'g%'"


int_aggregates = st.sampled_from(
    ["COUNT(*)", "COUNT(x)", "SUM(y)", "MIN(y)", "MAX(k)"]
)


@st.composite
def post_aggregates(draw) -> str:
    """An INT over a GROUP BY k's aggregates and its key: an aggregate,
    arithmetic, ``ABS`` or ``CASE``."""
    agg = draw(int_aggregates)
    other = draw(
        st.one_of(
            st.just("k"), int_aggregates, st.integers(0, 9).map(str)
        )
    )
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return agg
    if kind == 1:
        return f"{agg} {draw(st.sampled_from(['+', '-', '*']))} {other}"
    if kind == 2:
        return f"ABS({agg} - {other})"
    bound = draw(st.integers(0, 9))
    return f"CASE WHEN {agg} > {bound} THEN {other} ELSE {agg} END"


@st.composite
def where_clauses(draw) -> str:
    parts = draw(st.lists(predicates(), min_size=1, max_size=3))
    joiners = draw(
        st.lists(
            st.sampled_from(["AND", "OR"]),
            min_size=len(parts) - 1,
            max_size=len(parts) - 1,
        )
    )
    clause = parts[0]
    for joiner, part in zip(joiners, parts[1:]):
        clause = f"({clause}) {joiner} ({part})"
    return clause


@st.composite
def select_queries(draw) -> str:
    where = draw(where_clauses())
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return f"SELECT k, g, x FROM f WHERE {where}"
    if shape == 1:
        agg = draw(st.sampled_from(["COUNT(*)", "SUM(y)", "AVG(x)", "MIN(x)"]))
        return f"SELECT g, {agg} FROM f WHERE {where} GROUP BY g"
    if shape == 2:
        # Expressions over the aggregates and the key, in the select list
        # and HAVING, and maybe an order by an aggregate the select list
        # lacks (k breaks its ties: the order is total).
        query = (
            f"SELECT k, COUNT(*), SUM(x), {draw(post_aggregates())} FROM f "
            f"WHERE {where} GROUP BY k "
            f"HAVING {draw(post_aggregates())} > {draw(st.integers(0, 9))}"
        )
        if draw(st.booleans()):
            direction = draw(st.sampled_from(["", " DESC"]))
            query += f" ORDER BY {draw(int_aggregates)}{direction}, k"
        return query
    if shape == 3:
        # Computed outputs: the projection kernels, NULLs included.
        return (
            f"SELECT k, {draw(remainders())}, {draw(in_lists())} "
            f"FROM f WHERE {where}"
        )
    if shape == 4:
        # Join shape: qualified filters (k exists on both sides).
        cutoff = draw(st.integers(-5, 30))
        group = draw(st.integers(0, 5))
        return (
            f"SELECT f.g, d.label FROM f JOIN d ON f.k = d.k "
            f"WHERE f.x > {cutoff} OR f.g = 'g{group}'"
        )
    if shape == 5:
        if draw(st.booleans()):
            return f"SELECT DISTINCT g, y FROM f WHERE {where}"
        # One string column through the file store, '' among its values.
        return (
            f"SELECT x.g, COUNT(*) FROM (SELECT DISTINCT g FROM f "
            f"WHERE {where}) x GROUP BY x.g"
        )
    bound = draw(st.integers(-2, 24))
    op = draw(comparison_ops)
    if shape == 6:
        return (
            f"SELECT k, g FROM f WHERE {where} "
            f"UNION ALL SELECT k, label FROM d WHERE k {op} {bound}"
        )
    if shape == 7:
        # Every output column a key: the order is total, so the rows
        # compare as lists (NULLs first ascending, last descending).
        keys = draw(st.permutations(["k", "g", "x"]))
        order = ", ".join(
            f"{key}{draw(st.sampled_from(['', ' DESC']))}" for key in keys
        )
        limit = draw(st.integers(0, 30))
        return f"SELECT k, g, x FROM f WHERE {where} ORDER BY {order} LIMIT {limit}"
    if shape == 8:
        # d.k holds a NULL: kept by some subquery filters, not by others.
        negated = "NOT " if draw(st.booleans()) else ""
        sub = draw(st.sampled_from([f"k {op} {bound}", "label <> 'label4'"]))
        return (
            f"SELECT k, g FROM f WHERE k {negated}IN "
            f"(SELECT k FROM d WHERE {sub}) AND ({where})"
        )
    # A join over a GROUP BY ... HAVING subquery, through aliases.
    return (
        f"SELECT s.g, s.c, e.label FROM "
        f"(SELECT g, k, COUNT(*) c FROM f WHERE {where} GROUP BY g, k "
        f"HAVING COUNT(*) > {draw(st.integers(0, 3))}) s "
        f"JOIN d e ON s.k = e.k"
    )


def _normalize(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                round(v, 6) if isinstance(v, float) else v for v in row
            )
        )
    return sorted(out, key=repr)


class TestDifferentialFuzz:
    @given(select_queries())
    @settings(max_examples=60, deadline=None)
    # Each of Hive's cuts once, whatever the draw: NOT IN over a subquery
    # that keeps d's NULL key (no row survives), a HAVING that empties
    # a job feeding a join, DISTINCT, DISTINCT feeding a job with a
    # reduce partition of one '' row (its block is b"\n"), and a
    # descending order with NULLs.
    @example(
        "SELECT k, g FROM f WHERE k NOT IN "
        "(SELECT k FROM d WHERE label <> 'label4') AND (y < 18)"
    )
    @example(
        "SELECT s.g, s.c, e.label FROM (SELECT g, k, COUNT(*) c FROM f "
        "WHERE g IS NULL GROUP BY g, k HAVING COUNT(*) > 3) s "
        "JOIN d e ON s.k = e.k"
    )
    @example("SELECT DISTINCT g, y FROM f WHERE k IN (NULL, 4)")
    @example(
        "SELECT x.g, COUNT(*) FROM (SELECT DISTINCT g FROM f "
        "WHERE g IS NOT NULL) x GROUP BY x.g"
    )
    @example(
        "SELECT k, g, x FROM f WHERE y IS NULL OR k > 20 "
        "ORDER BY x DESC, g DESC, k LIMIT 12"
    )
    # Above a GROUP BY: arithmetic, ABS and CASE over aggregates and the
    # key; a computed HAVING; an order by an aggregate not selected.
    @example(
        "SELECT k, COUNT(*), SUM(x), CASE WHEN SUM(y) > 20 THEN k * MIN(y) "
        "ELSE ABS(MAX(k) - COUNT(x)) END FROM f WHERE y IS NOT NULL "
        "GROUP BY k HAVING COUNT(*) > 0"
    )
    @example(
        "SELECT k, COUNT(*), SUM(x), MAX(k) FROM f WHERE k < 12 "
        "GROUP BY k HAVING ABS(SUM(y) - 30) + k > 9"
    )
    @example(
        "SELECT k, COUNT(*), SUM(x), k FROM f WHERE g LIKE 'g%' "
        "GROUP BY k HAVING COUNT(*) > 3 ORDER BY MIN(y) DESC, k"
    )
    def test_shark_and_hive_agree(self, systems, query):
        shark, hive = systems
        shark_rows = shark.sql(query).rows
        hive_rows = hive.execute(query).rows
        ordered = "ORDER BY" in query
        if ordered:
            assert hive_rows == shark_rows, query
        else:
            assert _normalize(shark_rows) == _normalize(hive_rows), query
        want = sqlite_rows(query, TABLES)
        for rows in (shark_rows, hive_rows):
            assert_rows_match(rows, want, ordered, context=query)

    @given(where_clauses())
    @settings(max_examples=30, deadline=None)
    def test_codegen_and_interpreter_agree(self, systems, where):
        """The kernels against sqlite's interpreter over the same rows."""
        shark, __ = systems
        query = f"SELECT k, x, y FROM f WHERE {where}"
        assert_rows_match(
            shark.sql(query).rows, sqlite_rows(query, TABLES), context=query
        )
