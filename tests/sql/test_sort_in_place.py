"""An ORDER BY over one partition is sorted in that partition's task.

With one input partition and no partition count asked for,
``RDD.sort_batches`` runs no exchange (DESIGN §17): no sample, no range
bounds, no reduce stage.  The exchange's one map run would have been the
stable sort of that partition, and its ranges only re-sort slices of
it, so the rows and their order are the exchange's.  Pinned here
against the same statements over a two-partition copy of the table,
which still runs the exchange: ties in arrival order, NULLs first
ascending and last descending, two keys, non-numeric keys (the
``flat_sort_keys`` path), an empty input, a LIMIT; under a memory cap
that makes the in-place sorter spill, and under a worker killed
mid-query.  An explicit partition count keeps the exchange.
"""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro import SharkContext
from repro.datatypes import DATE, DOUBLE, INT, STRING, Field, Schema
from repro.engine.context import EngineContext
from repro.faults.injector import FaultInjector

_SCHEMA = Schema(
    [
        Field("id", INT),
        Field("a", INT),
        Field("s", STRING),
        Field("f", DOUBLE),
        Field("d", DATE),
    ]
)


def _rows(count: int = 400) -> list[tuple]:
    """Ties on every column (``a`` has 7 values), NULLs in all but ``id``."""
    start = date(2001, 1, 1)
    return [
        (
            i,
            None if i % 11 == 0 else (i * 5) % 7,
            None if i % 13 == 0 else "abcde"[i % 5] * (1 + i % 3),
            None if i % 17 == 0 else float((i * 3) % 10) / 4,
            None if i % 19 == 0 else start + timedelta(days=i % 9),
        )
        for i in range(count)
    ]


def _build(**context_kwargs) -> SharkContext:
    """``one`` (one partition) and ``two`` (the same rows in two)."""
    shark = SharkContext(num_workers=2, **context_kwargs)
    for name, partitions in (("one", 1), ("two", 2)):
        shark.create_table(name, _SCHEMA, cached=True)
        shark.load_rows(name, _rows(), num_partitions=partitions)
    return shark


#: ORDER BY clauses: ties broken by arrival order, NULL placement both
#: ways, DESC, two keys, string and date keys (no numeric array form).
_ORDER_BYS = [
    "a",
    "a DESC",
    "s",
    "s DESC, a",
    "d, f DESC",
    "f DESC, d DESC, s",
]
_STATEMENTS = [
    f"SELECT * FROM {{table}} ORDER BY {order_by}{limit}"
    for order_by in _ORDER_BYS
    for limit in ("", " LIMIT 25", " LIMIT 0")
] + [
    # An empty input to the sort.
    "SELECT * FROM {table} WHERE a > 100 ORDER BY s",
    "SELECT * FROM {table} WHERE a > 100 ORDER BY a LIMIT 3",
    # A computed key, under a projection.
    "SELECT s, a + 1 AS b FROM {table} ORDER BY b DESC, s",
]


def _written(shark: SharkContext, text: str) -> tuple[list, float]:
    """The statement's rows, and the shuffle records it wrote."""
    before = shark.metrics.value("shuffle.write.records")
    rows = shark.sql(text).rows
    return rows, shark.metrics.value("shuffle.write.records") - before


@pytest.fixture(scope="module")
def shark():
    return _build()


@pytest.mark.parametrize("statement", _STATEMENTS)
def test_one_partition_sorts_as_the_exchange_does(shark, statement):
    got, written = _written(shark, statement.format(table="one"))
    want, exchanged = _written(shark, statement.format(table="two"))
    assert list(map(repr, got)) == list(map(repr, want))
    assert written == 0  # no exchange at all
    assert exchanged > 0 or not want


def test_capped_in_place_sort_spills_and_keeps_its_rows(shark):
    capped = _build(memory_per_worker_bytes=1024)
    spilled = capped.engine.memory.spilled_by_owner
    for order_by in _ORDER_BYS:
        text = f"SELECT * FROM one ORDER BY {order_by}"
        assert list(map(repr, capped.sql(text).rows)) == list(
            map(repr, shark.sql(text).rows)
        ), order_by
    assert spilled["sort"]["events"] > 0
    assert capped.metrics.value("shuffle.write.records") == 0


def test_worker_killed_mid_query_changes_no_row():
    text = (
        "SELECT a, COUNT(*) AS n, SUM(f) FROM two "
        "GROUP BY a ORDER BY n DESC, a"
    )
    clean = _build().sql(text).rows
    killed = _build(
        fault_injector=FaultInjector(
            seed=5, kill_worker_id=1, kill_after_tasks=5
        )
    )
    worker = killed.engine.cluster.worker(1)
    assert worker.alive
    recovered = killed.metrics.value("tasks.recovered")
    got = killed.sql(text).rows
    assert not worker.alive
    assert killed.metrics.value("tasks.recovered") > recovered
    assert list(map(repr, got)) == list(map(repr, clean))


def _jobs_in_plan(shark: SharkContext, text: str) -> int:
    shark.engine.reset_profiles()
    shark.sql2rdd(text)
    return len(shark.engine.profiles)


def test_sql2rdd_runs_no_sort_job_before_an_action(shark):
    # PDE's pre-shuffle of the aggregate, and no sort's map stage.
    assert _jobs_in_plan(
        shark, "SELECT a, COUNT(*) FROM two GROUP BY a ORDER BY a"
    ) == 1
    assert _jobs_in_plan(shark, "SELECT * FROM one ORDER BY s") == 0
    # Two partitions: the sort's map stage runs to pick its bounds.
    assert _jobs_in_plan(shark, "SELECT * FROM two ORDER BY s") == 1


def test_an_explicit_partition_count_keeps_the_exchange():
    engine = EngineContext(num_workers=2)
    data = [(i * 7) % 23 for i in range(60)]
    one = engine.parallelize(data, 1)
    ranged = one.sort_by(lambda x: x, num_partitions=4)
    assert ranged.num_partitions == 4
    assert ranged.collect() == sorted(data)
    in_place = one.sort_by(lambda x: x, ascending=False)
    assert in_place.num_partitions == 1
    assert in_place.collect() == sorted(data, reverse=True)
