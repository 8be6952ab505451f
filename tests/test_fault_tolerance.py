"""Integration: the paper's fault-tolerance guarantees (Section 2.3).

1. Loss of any set of workers is tolerated; lost tasks re-execute and lost
   RDD partitions recompute from lineage, *within* the running query.
2. Recovery parallelizes across the cluster.
3. Determinism makes recomputation safe (same results every time).
4. Recovery spans combined SQL + ML pipelines (one lineage graph).
"""

import numpy as np
import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.ml import LabeledPoint, LogisticRegression


@pytest.fixture
def loaded_shark():
    shark = SharkContext(num_workers=5, cores_per_worker=2)
    shark.create_table(
        "metrics",
        Schema.of(("day", INT), ("group_key", STRING), ("value", DOUBLE)),
        cached=True,
    )
    rows = [
        (i % 20, f"g{i % 13}", float(i % 97))
        for i in range(4000)
    ]
    shark.load_rows("metrics", rows, num_partitions=10)
    return shark, rows


GROUP_QUERY = (
    "SELECT group_key, COUNT(*), SUM(value) FROM metrics GROUP BY group_key"
)


class TestGuaranteeOne:
    """Any set of worker losses; recovery happens inside the query."""

    def test_single_worker_loss_between_queries(self, loaded_shark):
        shark, rows = loaded_shark
        before = sorted(shark.sql(GROUP_QUERY).rows)
        shark.kill_worker(0)
        assert sorted(shark.sql(GROUP_QUERY).rows) == before

    def test_multiple_worker_losses(self, loaded_shark):
        shark, rows = loaded_shark
        before = sorted(shark.sql(GROUP_QUERY).rows)
        shark.kill_worker(0)
        shark.kill_worker(1)
        shark.kill_worker(2)
        assert sorted(shark.sql(GROUP_QUERY).rows) == before

    def test_mid_query_loss_does_not_restart_query(self, loaded_shark):
        shark, rows = loaded_shark
        expected = sorted(shark.sql(GROUP_QUERY).rows)
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=3, after_tasks=base + 5)
        result = shark.sql(GROUP_QUERY)
        assert sorted(result.rows) == expected
        # The engine recovered rather than resubmitting: the profile shows
        # recovered (re-executed) tasks, not a fresh full run.
        recovered = sum(
            profile.recovered_tasks for profile in shark.engine.profiles
        )
        assert recovered > 0

    def test_mid_query_loss_leaves_nothing_for_the_next_query(
        self, loaded_shark
    ):
        # The victim completes the query's ninth task; tasks on other
        # workers have read some of its cached partitions by then.  Every
        # partition it held is rebuilt inside the failing query, so the
        # next query misses no block.
        shark, rows = loaded_shark
        expected = sorted(shark.sql(GROUP_QUERY).rows)
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=None, after_tasks=base + 9)
        assert sorted(shark.sql(GROUP_QUERY).rows) == expected
        assert len(shark.engine.cluster.live_workers()) == 4
        misses = shark.metrics.value("cache.misses")
        assert sorted(shark.sql(GROUP_QUERY).rows) == expected
        assert shark.metrics.value("cache.misses") == misses

    def test_loss_during_multi_stage_join(self, loaded_shark):
        shark, rows = loaded_shark
        query = (
            "SELECT a.group_key, COUNT(*) FROM metrics a "
            "JOIN metrics b ON a.group_key = b.group_key "
            "WHERE a.day = 1 AND b.day = 2 GROUP BY a.group_key"
        )
        expected = sorted(shark.sql(query).rows)
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=1, after_tasks=base + 7)
        assert sorted(shark.sql(query).rows) == expected


class TestGuaranteeTwo:
    """Recovery is parallelized across survivors."""

    def test_lost_partitions_rebuilt_on_many_workers(self, loaded_shark):
        shark, rows = loaded_shark
        shark.sql(GROUP_QUERY)  # populate caches and shuffle outputs
        before_tasks = {
            w.worker_id: w.tasks_run
            for w in shark.engine.cluster.live_workers()
        }
        shark.kill_worker(0)
        shark.sql(GROUP_QUERY)
        participants = [
            w.worker_id
            for w in shark.engine.cluster.live_workers()
            if w.tasks_run > before_tasks.get(w.worker_id, 0)
        ]
        assert len(participants) >= 2


class TestGuaranteeThree:
    """Deterministic recomputation: recovered results are identical."""

    def test_repeated_recovery_identical(self, loaded_shark):
        shark, rows = loaded_shark
        runs = []
        for worker_id in (0, 1):
            shark.kill_worker(worker_id)
            runs.append(sorted(shark.sql(GROUP_QUERY).rows))
        assert runs[0] == runs[1]


class TestGuaranteeFour:
    """One lineage graph covers SQL and ML; failures anywhere recover."""

    def test_sql_to_ml_pipeline_recovers(self, loaded_shark):
        shark, rows = loaded_shark
        table = shark.sql2rdd(
            "SELECT day, value FROM metrics WHERE value > 10"
        )

        def extract(row):
            label = 1.0 if row.get_int("day") % 2 else -1.0
            return LabeledPoint(
                label,
                np.array([row.get_double("value") / 100.0, 1.0]),
            )

        features = table.map_rows(extract).cache()
        baseline = LogisticRegression(iterations=3, seed=11).fit(features)
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=2, after_tasks=base + 3)
        recovered = LogisticRegression(iterations=3, seed=11).fit(features)
        assert np.allclose(baseline.weights, recovered.weights)

    def test_cached_table_loss_recomputed_for_ml(self, loaded_shark):
        shark, rows = loaded_shark
        features = shark.sql2rdd(
            "SELECT value FROM metrics"
        ).map_rows(
            lambda row: LabeledPoint(
                1.0 if row.get_double("value") > 48 else -1.0,
                np.array([row.get_double("value"), 1.0]),
            )
        ).cache()
        features.count()
        shark.kill_worker(4)
        model = LogisticRegression(iterations=2, seed=3).fit(features)
        assert np.all(np.isfinite(model.weights))


class TestElasticity:
    """Section 7.2: nodes can join mid-session and receive work."""

    def test_new_worker_participates(self, loaded_shark):
        shark, rows = loaded_shark
        worker = shark.engine.add_worker(cores=2)
        # A fresh job with unpinned tasks spreads to the new node (pending
        # work "automatically spread onto" joining nodes, Section 7.2).
        shark.engine.parallelize(range(240), 24).map(lambda x: x + 1).count()
        assert worker.tasks_run > 0

    def test_shrink_then_grow(self, loaded_shark):
        shark, rows = loaded_shark
        expected = sorted(shark.sql(GROUP_QUERY).rows)
        shark.kill_worker(0)
        shark.kill_worker(1)
        shark.engine.add_worker(cores=2)
        assert sorted(shark.sql(GROUP_QUERY).rows) == expected
