"""The counters that total a task's volumes fold from the kept attempts.

``shuffle.{write,read}.*``, ``exchange.*``, ``batch.rows`` and
``tasks.{recovered,retried,speculative}`` have one home, the job's
``QueryProfile``: the scheduler adds each job's totals when the job ends
(and a sort's cut writes when its runs are cut), so over any window the
counters grow by exactly the sums over ``engine.profiles``.  An attempt
the scheduler threw away — a speculative loser, a reduce that died of a
fetch failure — is in no profile and counts in no counter.
"""

from __future__ import annotations

import pytest

from repro.engine.context import EngineContext
from repro.engine.scheduler import SchedulerConfig
from repro.errors import TaskError
from repro.faults import FaultInjector
from tests.sql.test_vectorized_parity import QUERIES, _build


def _tasks(profile):
    return [task for stage in profile.stages for task in stage.tasks]


#: Counter -> its sum over one job's profile.
_PROFILE_SUMS = {
    "shuffle.write.bytes": lambda p: sum(
        t.shuffle_write_bytes for t in _tasks(p)
    ),
    "shuffle.write.records": lambda p: sum(
        t.shuffle_write_records for t in _tasks(p)
    ),
    "exchange.batches": lambda p: sum(
        s.num_tasks for s in p.stages if s.is_shuffle_map
    ),
    "exchange.pickled_bytes": lambda p: sum(
        t.shuffle_write_pickled_bytes for t in _tasks(p)
    ),
    "shuffle.read.bytes": lambda p: sum(
        t.shuffle_read_bytes for t in _tasks(p)
    ),
    "batch.rows": lambda p: sum(t.batch_rows for t in _tasks(p)),
    "tasks.recovered": lambda p: p.recovered_tasks,
    "tasks.retried": lambda p: p.retried_tasks,
    "tasks.speculative": lambda p: p.speculative_tasks,
}

#: A total sort into several partitions: its runs are cut after the
#: pre-shuffle job that wrote them ended.
ORDER_BY = (
    "SELECT l_orderkey, l_extendedprice FROM lineitem "
    "ORDER BY l_extendedprice DESC, l_orderkey"
)

TEXTS = {
    "tpch_q1": QUERIES["tpch_q1"],
    "tpch_q3": QUERIES["tpch_q3"],
    "order_by": ORDER_BY,
}


def _run(shark, text) -> tuple[dict, dict]:
    """(each counter's growth, its sum over the profiles) for one query."""
    metrics = shark.metrics
    before = {name: metrics.value(name) for name in _PROFILE_SUMS}
    shark.engine.reset_profiles()
    shark.sql(text)
    grown = {name: metrics.value(name) - before[name] for name in before}
    sums = {
        name: sum(total(p) for p in shark.engine.profiles)
        for name, total in _PROFILE_SUMS.items()
    }
    return grown, sums


def test_counters_equal_profile_sums_under_chaos():
    injector = FaultInjector(
        seed=6,
        transient_failure_rate=0.1,
        kill_worker_id=1,
        kill_after_tasks=20,
        stragglers_per_stage=1,
        corrupt_fetch_rate=0.5,
    )
    shark = _build(
        True,
        4,
        fault_injector=injector,
        scheduler_config=SchedulerConfig(
            speculation=True, speculation_min_peers=2,
            speculation_multiplier=1.2,
        ),
    )
    window = {name: 0.0 for name in _PROFILE_SUMS}
    for key, text in TEXTS.items():
        grown, sums = _run(shark, text)
        assert grown == sums, key
        for name in window:
            window[name] += grown[name]
    # Every kind of fault happened in the window.
    assert window["tasks.retried"] > 0
    assert window["tasks.speculative"] > 0
    assert window["tasks.recovered"] > 0
    assert injector.injected_corruptions > 0
    assert not shark.engine.cluster.worker(1).alive


#: The counters of each query on a fault-free run (every task attempt is
#: kept, so they are what event-time counting read too).
_FAULT_FREE = {
    "tpch_q1": (1734, 30, 5, 0, 1734, 3000),
    "tpch_q3": (2219, 115, 9, 0, 2219, 3900),
    "order_by": (28115, 3000, 4, 0, 28115, 3000),
}


@pytest.mark.parametrize("key", sorted(_FAULT_FREE))
def test_fault_free_counters_are_pinned(key):
    grown, sums = _run(_build(True, 4), TEXTS[key])
    assert grown == sums
    names = list(_PROFILE_SUMS)
    assert tuple(grown[name] for name in names[:6]) == _FAULT_FREE[key]
    assert not any(grown[name] for name in names[6:])


def test_failed_job_keeps_its_profile():
    """A job whose result tasks fail still folds its map stage into the
    counters, and its profile is kept for those counters to equal."""
    engine = EngineContext(num_workers=2)
    pairs = engine.parallelize([(i % 5, i) for i in range(40)], 4)
    summed = pairs.reduce_by_key(lambda a, b: a + b)
    metrics = engine.tracer.metrics
    before = {name: metrics.value(name) for name in _PROFILE_SUMS}

    def fail(rows):
        raise ValueError("result task fails")

    with pytest.raises(TaskError):
        engine.run_job(summed, fail)
    (profile,) = engine.profiles
    assert engine.last_profile is profile
    (map_stage,) = [s for s in profile.stages if s.is_shuffle_map]
    assert map_stage.num_tasks == 4
    for name, total in _PROFILE_SUMS.items():
        assert metrics.value(name) - before[name] == total(profile), name
    assert metrics.value("shuffle.write.bytes") > before["shuffle.write.bytes"]
