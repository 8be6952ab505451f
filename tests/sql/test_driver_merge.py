"""An aggregate with no GROUP BY merges its partials on the driver.

Each map task writes its partial batch (one row) to the one bucket of
the partials' exchange, and the driver fetches that bucket and merges
it in map-index order (DESIGN §17): one map stage, no reduce task.  The
reduce task read the partials in that same order, so the rows — float
sums included — are ``repr``-identical to the Hive baseline's, which
keeps its one reducer.  Pinned here against sqlite and against Hive
over 1, 2 and 4 partitions: each aggregate, an empty table and an empty
partition, an all-NULL column, HAVING, expressions over aggregates,
LIMIT 0, a global aggregate as an IN subquery and as either side of a
cross join, CTAS and INSERT … SELECT of one; and under a memory cap, a
worker killed at every point of the query and a failed task attempt.
Read inside a task — under an exchange, or by a cached write — the
partials' bucket is read by a one-task reduce, as before.

A GROUP BY that PDE sizes to one reducer merges on the driver the same
way: the driver fetches the map outputs the pre-shuffle wrote, in the
order the one reduce task fetched them, so its rows are pinned the same
way, and so are its recovery (a worker killed after the pre-shuffle, a
corrupted fetch), its memory cap and the reducer counts that keep the
stage.
"""

from __future__ import annotations

import pytest

from repro import SharkContext
from repro.baselines.hive import HiveExecutor
from repro.datatypes import DOUBLE, INT, STRING, Field, Schema
from repro.engine.accumulator import Accumulator
from repro.engine.memory import DRIVER_WORKER
from repro.errors import TaskError
from repro.faults.injector import FaultInjector
from repro.obs.analyze import analyze_profiles
from repro.sql.planner import PlannerConfig
from repro.workloads import tpch
from tests.oracle import assert_rows_match, sqlite_rows
from tests.sql.test_vectorized_parity import TPCH_Q1, TPCH_Q3

_SCHEMA = Schema(
    [
        Field("id", INT),
        Field("a", INT),
        Field("f", DOUBLE),
        Field("s", STRING),
        Field("z", INT),
    ]
)
_COLUMNS = _SCHEMA.names


def _rows(count: int = 400) -> list[tuple]:
    """NULLs in ``a``, ``f`` and ``s``; ``z`` is NULL throughout."""
    return [
        (
            i,
            None if i % 11 == 0 else (i * 5) % 7,
            None if i % 17 == 0 else (i * 37 % 101) / 7.0,
            None if i % 13 == 0 else "abcde"[i % 5] * (1 + i % 3),
            None,
        )
        for i in range(count)
    ]


#: Table -> (partitions, rows).  ``holes`` has an empty partition (3 rows
#: in 4); ``empty`` is created and never loaded.
_TABLES = {
    "one": (1, _rows()),
    "two": (2, _rows()),
    "four": (4, _rows()),
    "holes": (4, _rows(3)),
}


def _build(**context_kwargs) -> SharkContext:
    shark = SharkContext(num_workers=2, **context_kwargs)
    for name, (partitions, rows) in _TABLES.items():
        shark.create_table(name, _SCHEMA, cached=True)
        shark.load_rows(name, rows, num_partitions=partitions)
    shark.create_table("empty", _SCHEMA, cached=True)
    return shark


_ORACLE_TABLES = {
    **{name: (_COLUMNS, rows) for name, (__, rows) in _TABLES.items()},
    "empty": (_COLUMNS, []),
}

_AGGREGATES = (
    "SELECT COUNT(*), COUNT(a), SUM(a), SUM(f), AVG(f), AVG(a), "
    "MIN(f), MAX(f), MIN(s), MAX(s) FROM {table}"
)
_STATEMENTS = [
    _AGGREGATES,
    "SELECT COUNT(z), SUM(z), AVG(z), MIN(z), MAX(z) FROM {table}",
    "SELECT COUNT(DISTINCT a), COUNT(DISTINCT s), SUM(DISTINCT a) "
    "FROM {table}",
    "SELECT COUNT(*), SUM(f) FROM {table} WHERE a > 100",
    "SELECT COUNT(*) FROM {table} HAVING COUNT(*) > 10",
    "SELECT SUM(f) FROM {table} HAVING SUM(f) < 0",
    "SELECT SUM(f) / COUNT(*) + 1, MAX(a) - MIN(a), COUNT(*) * 2 "
    "FROM {table}",
    "SELECT COUNT(*) FROM {table} LIMIT 0",
    "SELECT SUM(f) AS total FROM {table} ORDER BY total LIMIT 1",
]
_CASES = [
    (statement, table)
    for statement in _STATEMENTS
    for table in ("one", "two", "four", "holes", "empty")
]


@pytest.fixture(scope="module")
def shark():
    return _build()


def _merged_on_driver(shark: SharkContext, text: str) -> list:
    """Run ``text`` and check its merge ran on the driver: the result
    job's one map stage (a global aggregate's partials, or the stage a
    GROUP BY's PDE pre-shuffle ran), whose outputs the driver fetched,
    and no reduce task."""
    shark.engine.reset_profiles()
    rows = shark.sql(text).rows
    merged = shark.engine.profiles[-1]
    (stage,) = merged.stages
    assert stage.is_shuffle_map
    assert merged.driver_map_outputs > 0
    assert merged.driver_task.worker_id == DRIVER_WORKER
    return rows


@pytest.mark.parametrize(("statement", "table"), _CASES)
def test_rows_match_sqlite_and_hives_reducer(shark, statement, table):
    text = statement.format(table=table)
    got = _merged_on_driver(shark, text)
    assert_rows_match(got, sqlite_rows(text, _ORACLE_TABLES), context=text)
    hive = HiveExecutor(shark.session, num_reducers=8).execute(text)
    assert list(map(repr, got)) == list(map(repr, hive.rows))


def test_empty_input_counts_zero_and_sums_null(shark):
    for table in ("empty", "holes"):
        text = f"SELECT COUNT(*), SUM(f), MIN(s) FROM {table} WHERE a > 100"
        assert shark.sql(text).rows == [(0, None, None)]


def test_partials_merge_in_map_index_order():
    """A float sum depends on the order it adds in: the driver adds the
    partials in map-index order, as the reducer did."""
    values = [1e17, 3.0, -1e17, 1.25]  # one row, so one partial, a task
    shark = SharkContext(num_workers=2)
    shark.create_table("spread", _SCHEMA, cached=True)
    shark.load_rows(
        "spread", [(i, i, f, "x", None) for i, f in enumerate(values)],
        num_partitions=4,
    )
    text = "SELECT SUM(f), AVG(f) FROM spread"
    rows = _merged_on_driver(shark, text)
    in_order = ((values[0] + values[1]) + values[2]) + values[3]
    backwards = ((values[3] + values[2]) + values[1]) + values[0]
    assert in_order != backwards
    assert rows == [(in_order, in_order / 4)]
    hive = HiveExecutor(shark.session, num_reducers=8).execute(text)
    assert list(map(repr, rows)) == list(map(repr, hive.rows))


def test_the_merge_is_priced_as_driver_work(shark):
    text = _AGGREGATES.format(table="four")
    _merged_on_driver(shark, text)
    (profile,) = shark.engine.profiles
    merged = profile.driver_task
    assert merged.shuffle_read_bytes > 0 and merged.records_out == 1
    analysis = analyze_profiles("", [profile], 2, 1)
    (priced,) = analysis.merges
    assert priced.map_outputs == 4
    (stage,) = analysis.stages
    # Not a task: no launch overhead, yet not free.
    assert 0 < priced.sim_seconds < 1e-3
    assert analysis.total_sim_seconds == pytest.approx(
        stage.sim_seconds + priced.sim_seconds, rel=1e-12
    )
    # On the lane clock: the driver lane, after the stage's tasks.
    shark.enable_tracing()
    shark.sql(text)
    spans = shark.trace.spans
    shark.disable_tracing()
    (merged,) = [span for span in spans if span.name == "driver merge"]
    tasks = [span for span in spans if span.category == "task"]
    assert (merged.lane, merged.category) == ("driver", "driver")
    assert merged.duration > 0
    assert merged.start >= max(task.end for task in tasks)


def test_explain_analyze_shows_one_stage_and_the_merge(shark):
    text = shark.explain_analyze(_AGGREGATES.format(table="four"))
    lines = [line.strip() for line in text.splitlines()]
    stages = [line for line in lines if line.startswith("stage ")]
    merges = [line for line in lines if line.startswith("driver merge")]
    assert len(stages) == 1 and "(shuffle-map, " in stages[0]
    assert "4 tasks" in stages[0]
    (merge,) = merges
    assert merge.startswith("driver merge (job ")
    assert ": 4 map outputs, fetched " in merge
    assert ", 1 rows out, " in merge
    assert merge.endswith(" sim-s") and " 0.000000 sim-s" not in merge


@pytest.mark.parametrize(
    "text",
    [
        # An IN subquery and either side of a cross join.
        "SELECT id FROM four WHERE a IN (SELECT MAX(a) FROM two)",
        "SELECT t.id, m.mx FROM four t, (SELECT MAX(f) AS mx FROM two) m "
        "WHERE t.f > m.mx - 1",
        "SELECT m.n, t.id FROM (SELECT COUNT(*) AS n FROM two) m, four t "
        "WHERE t.id < 3",
        # Under an exchange: the driver's partition is read in a task.
        "SELECT DISTINCT n FROM (SELECT COUNT(*) AS n FROM four) c",
        "SELECT n, COUNT(*) FROM (SELECT COUNT(*) AS n FROM four) c "
        "GROUP BY n",
        "SELECT * FROM (SELECT COUNT(*) AS n FROM four) c "
        "UNION ALL SELECT * FROM (SELECT COUNT(*) AS n FROM two) d",
    ],
)
def test_a_global_aggregate_inside_a_query(shark, text):
    got = shark.sql(text).rows
    assert_rows_match(got, sqlite_rows(text, _ORACLE_TABLES), context=text)
    hive = HiveExecutor(shark.session, num_reducers=8).execute(text)
    assert sorted(map(repr, got)) == sorted(map(repr, hive.rows))


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "external"])
def test_ctas_and_insert_select_of_a_global_aggregate(cached):
    shark = _build()
    select = "SELECT COUNT(*) AS n, SUM(f) AS total FROM four"
    properties = " TBLPROPERTIES ('shark.cache' = 'true')" if cached else ""
    shark.sql(f"CREATE TABLE totals{properties} AS {select}")
    shark.sql(f"INSERT INTO totals {select.replace('four', 'two')}")
    want = shark.sql(select).rows + shark.sql(select.replace("four", "two")).rows
    got = shark.sql("SELECT * FROM totals").rows
    assert sorted(map(repr, got)) == sorted(map(repr, want))


def test_read_inside_a_task_the_partials_keep_their_exchange():
    """A cached write reads the aggregate inside its load task, and an
    exchange above it inside its map tasks: there the partials go
    through their one-bucket exchange, four parallel map tasks and a
    one-task reduce, not one task scanning every block."""
    shark = _build()
    select = "SELECT COUNT(*) AS n, SUM(f) AS total FROM four"
    for text, reader in (
        (
            f"CREATE TABLE totals TBLPROPERTIES ('shark.cache' = 'true') "
            f"AS {select}",
            "load:totals",
        ),
        (f"SELECT DISTINCT n FROM ({select}) c", "distinct_local"),
    ):
        shark.engine.reset_profiles()
        shark.sql(text)
        stages = {
            stage.name: (stage.is_shuffle_map, stage.num_tasks)
            for profile in shark.engine.profiles
            for stage in profile.stages
        }
        assert stages["batch_partial_aggregate"] == (True, 4), text
        assert stages[reader][1] == 1, text
        assert all(p.driver_task is None for p in shark.engine.profiles)


def test_accumulators_above_the_merge_count_once(shark):
    """What the driver runs above the merge adds to an accumulator as a
    task would: once, when it succeeds."""
    table = shark.sql2rdd(_AGGREGATES.format(table="four"))
    seen = Accumulator(0)
    table.rdd.foreach_partition(lambda part: seen.add(len(part)))
    assert seen.value == 1
    rows = Accumulator(0)
    counts = table.map_rows(lambda row: rows.add(1) or row[0]).collect()
    assert (counts, rows.value) == ([400], 1)


def test_a_user_function_failing_above_the_merge_is_a_task_error(shark):
    table = shark.sql2rdd(_AGGREGATES.format(table="four"))
    with pytest.raises(TaskError) as raised:
        table.map_rows(lambda row: 1 / 0).collect()
    assert isinstance(raised.value.cause, ZeroDivisionError)
    assert shark.engine.memory.ledger(DRIVER_WORKER).used["execution"] == 0


def test_capped_context_merges_the_same_rows(shark):
    # 256 B a worker: the scans' partial aggregation spills, and cached
    # blocks are evicted and recomputed.
    capped = _build(memory_per_worker_bytes=256)
    for statement, table in _CASES:
        text = statement.format(table=table)
        assert list(map(repr, capped.sql(text).rows)) == list(
            map(repr, shark.sql(text).rows)
        ), text
    assert capped.engine.memory.spill_events > 0
    assert capped.metrics.value("blocks.evicted") > 0
    # The merge held its fetched partials on the driver's ledger, then
    # let go.
    driver = capped.engine.memory.ledger(DRIVER_WORKER)
    assert driver.owner_peak[("execution", "driver_merge")] > 0
    assert driver.used["execution"] == 0


def test_a_worker_killed_at_any_task_of_the_query_reruns_its_maps(shark):
    """The worker dies after each of the query's tasks in turn: the map
    outputs it held are lost and re-run from lineage before the driver
    fetches the bucket, as a GROUP BY's are, and the rows never move."""
    text = _AGGREGATES.format(table="four")
    clean = _build()
    loads = clean.engine.cluster.total_tasks_completed
    want = list(map(repr, clean.sql(text).rows))
    query_tasks = clean.engine.cluster.total_tasks_completed - loads
    for kill_after in range(loads + 1, loads + query_tasks + 1):
        killed = _build(
            fault_injector=FaultInjector(
                seed=5, kill_worker_id=1, kill_after_tasks=kill_after
            )
        )
        worker = killed.engine.cluster.worker(1)
        assert worker.alive
        killed.engine.reset_profiles()
        launched = killed.metrics.value("tasks.launched")
        recovered = killed.metrics.value("tasks.recovered")
        rows = killed.sql(text).rows
        assert not worker.alive, kill_after
        assert list(map(repr, rows)) == want, kill_after
        (profile,) = killed.engine.profiles
        (stage,) = profile.stages
        lost = sum(task.worker_id == 1 for task in stage.tasks)
        assert profile.recovered_tasks == lost > 0, kill_after
        assert killed.metrics.value("tasks.recovered") - recovered == lost
        # The dead worker's cached blocks were recomputed by the tasks
        # that read them: only its map outputs launched again.
        assert (
            killed.metrics.value("tasks.launched") - launched
            == query_tasks + lost
        )
        assert killed.engine.invariant_violations() == [], kill_after


def test_a_failed_attempt_reruns_only_its_partial(shark):
    text = _AGGREGATES.format(table="four")
    flaky = _build()
    # Armed after the loads: the query's first attempt fails.
    flaky.engine.fault_injector = FaultInjector(
        seed=3, transient_failure_rate=1.0, max_transient_failures=1
    )
    launched = flaky.metrics.value("tasks.launched")
    rows = flaky.sql(text).rows
    assert flaky.metrics.value("tasks.retried") == 1
    assert flaky.metrics.value("tasks.launched") - launched == 5
    assert list(map(repr, rows)) == list(map(repr, shark.sql(text).rows))


def test_sql2rdd_is_a_lazy_one_partition_rdd(shark):
    text = _AGGREGATES.format(table="four")
    shark.engine.reset_profiles()
    table = shark.sql2rdd(text)
    assert shark.engine.profiles == []  # no job before an action
    assert table.num_partitions == 1
    want = list(map(repr, shark.sql(text).rows))
    assert list(map(repr, table.collect())) == want
    assert table.count() == 1
    assert table.map_rows(lambda row: row[0]).collect() == [400]
    # Cached, the partition lives on a worker: its task computes it.
    assert list(map(repr, table.cache().collect())) == want
    assert list(map(repr, table.collect())) == want


# ---------------------------------------------------------------------------
# A GROUP BY that PDE sizes to one reducer merges on the driver too: the
# driver fetches the map outputs the pre-shuffle wrote, in the order the
# one coalesced reduce partition reads them, and merges them there.
# ---------------------------------------------------------------------------

_GROUPED = [
    "SELECT a, COUNT(*), COUNT(f), SUM(f), AVG(f), MIN(s), MAX(s) "
    "FROM {table} GROUP BY a",
    "SELECT s, COUNT(DISTINCT a), SUM(DISTINCT a) FROM {table} GROUP BY s",
    "SELECT a, SUM(f) FROM {table} GROUP BY a HAVING COUNT(*) > 30",
    "SELECT a, s, SUM(f) AS total FROM {table} GROUP BY a, s "
    "ORDER BY total DESC, a, s LIMIT 4",
]
_GROUPED_CASES = [
    (statement, table)
    for statement in _GROUPED
    for table in ("one", "two", "four", "holes", "empty")
]


def _hive_reprs(shark: SharkContext, text: str, rows: list) -> None:
    hive = HiveExecutor(shark.session, num_reducers=8).execute(text).rows
    if "ORDER BY" in text:
        assert list(map(repr, rows)) == list(map(repr, hive))
    else:
        assert sorted(map(repr, rows)) == sorted(map(repr, hive))


@pytest.mark.parametrize(("statement", "table"), _GROUPED_CASES)
def test_group_by_merges_on_the_driver(shark, statement, table):
    text = statement.format(table=table)
    got = _merged_on_driver(shark, text)
    assert_rows_match(
        got, sqlite_rows(text, _ORACLE_TABLES),
        ordered="ORDER BY" in text, context=text,
    )
    _hive_reprs(shark, text, got)


@pytest.fixture(scope="module")
def tpch_shark():
    shark = SharkContext(num_workers=4, cores_per_worker=2)
    tables = {}
    for name, data in (
        ("lineitem", tpch.generate_lineitem(1500)),
        ("orders", tpch.generate_orders(400)),
        ("customer", tpch.generate_customer(60)),
    ):
        shark.create_table(name, data.schema, cached=True)
        shark.load_rows(name, data.rows)
        tables[name] = (data.schema.names, data.rows)
    return shark, tables


@pytest.mark.parametrize("name", ["q1", "q3"])
def test_tpch_q1_and_q3_merge_on_the_driver(tpch_shark, name):
    shark, tables = tpch_shark
    text = {"q1": TPCH_Q1, "q3": TPCH_Q3}[name]
    got = _merged_on_driver(shark, text)
    assert_rows_match(got, sqlite_rows(text, tables), ordered=True)
    _hive_reprs(shark, text, got)


def test_group_partials_merge_in_map_index_order():
    """One group, one partial a map task: the driver adds them in
    map-index order, as the one coalesced reducer did."""
    values = [1e17, 3.0, -1e17, 1.25]
    shark = SharkContext(num_workers=2)
    shark.create_table("spread", _SCHEMA, cached=True)
    shark.load_rows(
        "spread", [(i, 1, f, "x", None) for i, f in enumerate(values)],
        num_partitions=4,
    )
    text = "SELECT a, SUM(f), AVG(f) FROM spread GROUP BY a"
    rows = _merged_on_driver(shark, text)
    in_order = ((values[0] + values[1]) + values[2]) + values[3]
    assert rows == [(1, in_order, in_order / 4)]
    _hive_reprs(shark, text, rows)


@pytest.mark.parametrize(
    "config",
    [
        PlannerConfig(target_partition_bytes=64),
        PlannerConfig(num_reducers=4),
        PlannerConfig(enable_pde=False),
    ],
    ids=["pde-more-reducers", "num-reducers", "no-pde"],
)
def test_more_than_one_reducer_keeps_the_reduce_stage(config):
    shark = _build(config=config)
    text = _GROUPED[0].format(table="four")
    shark.engine.reset_profiles()
    got = shark.sql(text).rows
    profiles = shark.engine.profiles
    reduces = [
        stage.num_tasks for p in profiles for stage in p.stages
        if not stage.is_shuffle_map
    ]
    assert len(reduces) == 1 and reduces[0] > 1
    assert all(p.driver_task is None for p in profiles)
    assert_rows_match(got, sqlite_rows(text, _ORACLE_TABLES), context=text)
    _hive_reprs(shark, text, got)


def test_worker_killed_after_the_pre_shuffle_reruns_only_its_maps(shark):
    """The worker dies between plan() — whose PDE pre-shuffle wrote the
    map outputs — and the collect: the lost map outputs alone re-run
    from lineage before the driver fetches them."""
    text = _GROUPED[0].format(table="four")
    killed = _build()
    killed.engine.reset_profiles()
    table = killed.sql2rdd(text)
    (pre_shuffle,) = killed.engine.profiles
    lost = sum(task.worker_id == 1 for task in pre_shuffle.stages[0].tasks)
    killed.engine.cluster.kill_worker(1)
    launched = killed.metrics.value("tasks.launched")
    rows = table.collect()
    assert sorted(map(repr, rows)) == sorted(
        map(repr, shark.sql(text).rows)
    )
    __, merged = killed.engine.profiles
    (rerun,) = merged.stages
    assert rerun.is_shuffle_map and rerun.num_tasks == lost > 0
    assert killed.metrics.value("tasks.launched") - launched == lost
    assert merged.driver_map_outputs == 4


def test_a_corrupted_fetch_on_the_driver_reruns_one_map(shark):
    text = _GROUPED[0].format(table="four")
    # The loads fetch nothing: the first fetch is the driver's, and it
    # finds one map output bad.
    injector = FaultInjector(
        seed=5, corrupt_fetch_rate=1.0, max_corrupt_fetches=1
    )
    corrupted = _build(fault_injector=injector)
    launched = corrupted.metrics.value("tasks.launched")
    rows = _merged_on_driver(corrupted, text)
    assert injector.injected_corruptions == 1
    assert corrupted.metrics.value("shuffle.fetch_failures") == 1
    assert corrupted.metrics.value("tasks.launched") - launched == 4 + 1
    assert sorted(map(repr, rows)) == sorted(
        map(repr, shark.sql(text).rows)
    )
    __, merged = corrupted.engine.profiles
    (rerun,) = merged.stages
    assert rerun.num_tasks == 1 and merged.recovered_tasks == 1


def test_capped_context_merges_the_same_groups(shark):
    capped = _build(memory_per_worker_bytes=256)
    for statement, table in _GROUPED_CASES:
        text = statement.format(table=table)
        assert sorted(map(repr, _merged_on_driver(capped, text))) == sorted(
            map(repr, shark.sql(text).rows)
        ), text
    driver = capped.engine.memory.ledger(DRIVER_WORKER)
    assert driver.owner_peak[("execution", "driver_merge")] > 0
    assert driver.used["execution"] == 0
    assert capped.engine.invariant_violations() == []


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "external"])
def test_ctas_and_insert_select_of_a_group_by(cached):
    shark = _build()
    select = "SELECT a, COUNT(*) AS n, SUM(f) AS total FROM four GROUP BY a"
    properties = " TBLPROPERTIES ('shark.cache' = 'true')" if cached else ""
    shark.sql(f"CREATE TABLE grouped{properties} AS {select}")
    shark.sql(f"INSERT INTO grouped {select.replace('four', 'two')}")
    want = shark.sql(select).rows + shark.sql(select.replace("four", "two")).rows
    got = shark.sql("SELECT * FROM grouped").rows
    assert sorted(map(repr, got)) == sorted(map(repr, want))


def test_sql2rdd_of_a_group_by_runs_only_its_pre_shuffle(shark):
    text = _GROUPED[0].format(table="four")
    shark.engine.reset_profiles()
    table = shark.sql2rdd(text)
    (pre_shuffle,) = shark.engine.profiles  # plan() sized the merge
    assert all(stage.is_shuffle_map for stage in pre_shuffle.stages)
    assert table.num_partitions == 1
    want = sorted(map(repr, shark.sql(text).rows))
    shark.engine.reset_profiles()
    assert sorted(map(repr, table.collect())) == want
    (merged,) = shark.engine.profiles
    assert merged.driver_map_outputs == 4
    assert table.count() == 8  # 7 values of a, and NULL
