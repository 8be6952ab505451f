"""Differential fuzzing: Shark vs the Hive baseline on generated queries.

The two systems share a front end but execute through completely different
machinery (RDD dataflow with PDE/broadcast/pruning vs MapReduce job
chains).  Any row difference on any generated query is a bug in one of
them — the same oracle the paper leans on by being Hive-compatible.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.datatypes import DOUBLE, INT, STRING, Schema


@pytest.fixture(scope="module")
def systems():
    shark = SharkContext(num_workers=3)
    shark.create_table(
        "f",
        Schema.of(("k", INT), ("g", STRING), ("x", DOUBLE), ("y", INT)),
        cached=True,
    )
    rows = [
        (i % 23, f"g{i % 5}", round((i * 7 % 97) / 3.0, 3), i % 11)
        for i in range(400)
    ]
    shark.load_rows("f", rows)
    shark.create_table("d", Schema.of(("k", INT), ("label", STRING)))
    shark.load_rows("d", [(i, f"label{i}") for i in range(0, 23, 2)])

    def table_rows(entry):
        rdd = shark.session._scan_rdd(entry)
        return shark.engine.run_job(rdd, list)

    hive = HiveExecutor(
        shark.session.catalog, shark.store, shark.session.registry,
        table_rows=table_rows,
    )
    return shark, hive


# --- tiny query grammar ----------------------------------------------------

columns = st.sampled_from(["k", "x", "y"])
string_column = st.just("g")
comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def predicates(draw) -> str:
    kind = draw(st.integers(0, 4))
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
        return f"k BETWEEN {low} AND {low + span}"
    if kind == 3:
        values = draw(
            st.lists(st.integers(0, 25), min_size=1, max_size=4)
        )
        inner = ", ".join(str(v) for v in values)
        return f"k IN ({inner})"
    return "g LIKE 'g%'"


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
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return f"SELECT k, g, x FROM f WHERE {where}"
    if shape == 1:
        agg = draw(st.sampled_from(["COUNT(*)", "SUM(y)", "AVG(x)", "MIN(x)"]))
        return f"SELECT g, {agg} FROM f WHERE {where} GROUP BY g"
    if shape == 2:
        return (
            f"SELECT k, COUNT(*), SUM(x) FROM f WHERE {where} "
            f"GROUP BY k HAVING COUNT(*) > 1"
        )
    # Join shape: qualified filters (k exists on both sides).
    cutoff = draw(st.integers(-5, 30))
    group = draw(st.integers(0, 5))
    return (
        f"SELECT f.g, d.label FROM f JOIN d ON f.k = d.k "
        f"WHERE f.x > {cutoff} OR f.g = 'g{group}'"
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
    def test_shark_and_hive_agree(self, systems, query):
        shark, hive = systems
        shark_rows = shark.sql(query).rows
        hive_rows = hive.execute(query).rows
        assert _normalize(shark_rows) == _normalize(hive_rows), query

    @given(where_clauses())
    @settings(max_examples=30, deadline=None)
    def test_codegen_and_interpreter_agree(self, systems, where):
        from dataclasses import replace

        shark, __ = systems
        query = f"SELECT k, x FROM f WHERE {where}"
        compiled_rows = _normalize(shark.sql(query).rows)
        original = shark.session.config
        try:
            shark.session.config = replace(original, vectorize=False)
            interpreted_rows = _normalize(shark.sql(query).rows)
        finally:
            shark.session.config = original
        assert compiled_rows == interpreted_rows, where
