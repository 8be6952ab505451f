"""CacheTracker and TaskContext internals."""

from repro import SharkContext
from repro.engine.metrics import TaskMetrics
from repro.engine.task import CacheTracker, TaskContext


class TestCacheTracker:
    def test_put_get_roundtrip(self, ctx):
        tracker = ctx.cache_tracker
        tracker.put(rdd_id=7, partition=0, worker_id=1, value=[1, 2, 3])
        worker_id, value = tracker.get(7, 0)
        assert worker_id == 1
        assert value == [1, 2, 3]
        assert tracker.location(7, 0) == 1

    def test_get_missing(self, ctx):
        assert ctx.cache_tracker.get(99, 0) is None
        assert ctx.cache_tracker.location(99, 0) is None

    def test_dead_worker_entry_dropped_lazily(self, ctx):
        tracker = ctx.cache_tracker
        tracker.put(5, 0, worker_id=2, value="v")
        # Simulate losing only the block (worker restarted empty).
        ctx.cluster.worker(2).blocks.clear()
        assert tracker.get(5, 0) is None
        assert tracker.location(5, 0) is None  # entry purged on miss

    def test_kill_callback_purges_entries(self, ctx):
        tracker = ctx.cache_tracker
        tracker.put(5, 0, worker_id=3, value="v")
        tracker.put(5, 1, worker_id=0, value="w")
        ctx.cluster.kill_worker(3)
        assert tracker.cached_partitions(5) == {1: 0}

    def test_unpersist_clears_blocks(self, ctx):
        tracker = ctx.cache_tracker
        tracker.put(8, 0, worker_id=1, value=[0] * 100)
        assert tracker.cached_bytes(8) > 0
        tracker.unpersist(8)
        assert tracker.cached_partitions(8) == {}
        assert tracker.cached_bytes(8) == 0

    def test_per_rdd_hit_ratio_reads_its_lookups_until_unpersisted(self, ctx):
        tracker = ctx.cache_tracker
        metrics = ctx.tracer.metrics
        tracker.put(6, 0, worker_id=1, value="v")
        tracker.get(6, 0)
        tracker.get(6, 1)
        tracker.get(6, 0)
        assert metrics.value("cache.rdd_6.hit_ratio") == 2 / 3
        assert metrics.value("cache.hit_ratio") == 2 / 3
        tracker.unpersist(6, {0})
        assert "cache.rdd_6.hit_ratio" in metrics.snapshot()["gauges"]
        tracker.unpersist(6)
        assert "cache.rdd_6.hit_ratio" not in metrics.snapshot()["gauges"]

    def test_dropped_tables_leave_no_hit_ratio_behind(self):
        shark = SharkContext(num_workers=2, cores_per_worker=2)
        for round_ in range(20):
            shark.sql(
                "CREATE TABLE t (k STRING, v INT) "
                "TBLPROPERTIES ('shark.cache'='true')"
            )
            shark.sql(f"INSERT INTO t VALUES ('a', {round_}), ('b', 1)")
            shark.sql("SELECT k, SUM(v) FROM t GROUP BY k")
            shark.sql("DROP TABLE t")
        tracker = shark.engine.cache_tracker
        assert tracker._rdd_stats == {}
        assert "cache.rdd_" not in shark.metrics.describe()
        assert shark.metrics.value("cache.hits") > 0


class TestTaskContext:
    def _context(self, ctx, worker_id=0):
        metrics = TaskMetrics(stage_id=1, partition=0, worker_id=worker_id)
        return (
            TaskContext(
                stage_id=1,
                partition=0,
                worker=ctx.cluster.worker(worker_id),
                shuffle_manager=ctx.shuffle_manager,
                cache_tracker=ctx.cache_tracker,
                metrics=metrics,
            ),
            metrics,
        )

    def test_write_then_read_cached(self, ctx):
        task_ctx, metrics = self._context(ctx)
        task_ctx.write_cached(3, 0, [1, 2, 3])
        value = task_ctx.read_cached(3, 0)
        assert value == [1, 2, 3]
        assert metrics.source == "memory"
        assert metrics.records_in == 3
        assert metrics.bytes_in > 0

    def test_read_cached_miss_returns_none(self, ctx):
        task_ctx, metrics = self._context(ctx)
        assert task_ctx.read_cached(44, 0) is None
        assert metrics.records_in == 0

    def test_metrics_cost_vector_conversion(self):
        metrics = TaskMetrics(
            records_in=10, bytes_in=100, shuffle_write_bytes=50,
            source="disk",
        )
        vector = metrics.to_cost_vector()
        assert vector.records_in == 10.0
        assert vector.shuffle_write_bytes == 50.0
        assert vector.source == "disk"


class TestCachedScanCountsOnce:
    """A cached table's block is one element of its cached list: the
    scan over it counts the rows and the column bytes it reads, and the
    cache read counts nothing of its own beside them."""

    def _table(self):
        shark = SharkContext(num_workers=2)
        shark.sql(
            "CREATE TABLE t (a INT, b INT) TBLPROPERTIES ('shark.cache'='true')"
        )
        shark.load_rows(
            "t", [(i, i % 3) for i in range(400)], num_partitions=4
        )
        return shark

    def test_a_scan_task_counts_its_rows_once(self):
        shark = self._table()
        text = "SELECT COUNT(*) FROM t WHERE a >= 0"
        shark.engine.reset_profiles()
        shark.sql(text)
        (profile,) = shark.engine.profiles
        (stage,) = profile.stages
        assert [task.records_in for task in stage.tasks] == [100] * 4
        assert "rows 400 -> 4," in shark.explain_analyze(text)

    def test_a_cached_rdd_partition_still_counts_its_records(self):
        shark = self._table()
        rdd = shark.engine.parallelize(list(range(12)), 3).cache()
        rdd.collect()  # computes and caches the partitions
        shark.engine.reset_profiles()
        assert rdd.count() == 12
        (profile,) = shark.engine.profiles
        assert [task.records_in for task in profile.stages[0].tasks] == [4] * 3
        assert all(task.bytes_in > 0 for task in profile.stages[0].tasks)
