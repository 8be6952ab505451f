"""DAG scheduler: stage structure, recovery, stage reuse, profiles."""

import pytest

from repro.engine.rdd import ShuffledRDD
from repro.engine.partitioner import HashPartitioner
from repro.errors import NoLiveWorkersError
from repro.obs.analyze import render_query
from repro.obs.record import QueryRecord


class TestStageStructure:
    def test_single_stage_for_narrow_chain(self, ctx):
        rdd = ctx.parallelize(range(10), 4).map(lambda x: x).filter(
            lambda x: True
        )
        rdd.collect()
        assert ctx.last_profile.num_stages == 1

    def test_two_stages_across_shuffle(self, ctx):
        rdd = ctx.parallelize(range(10), 4).map(lambda x: (x % 2, x))
        rdd.reduce_by_key(lambda a, b: a + b).collect()
        profile = ctx.last_profile
        assert profile.num_stages == 2
        kinds = sorted(stage.is_shuffle_map for stage in profile.stages)
        assert kinds == [False, True]

    def test_three_stages_for_two_shuffles(self, ctx):
        rdd = ctx.parallelize(range(20), 4).map(lambda x: (x % 5, x))
        once = rdd.reduce_by_key(lambda a, b: a + b)
        twice = once.map(lambda kv: (kv[1] % 3, 1)).reduce_by_key(
            lambda a, b: a + b
        )
        twice.collect()
        assert ctx.last_profile.num_stages == 3

    def test_shuffle_stage_skipped_when_materialized(self, ctx):
        pairs = ctx.parallelize(range(10), 4).map(lambda x: (x % 3, 1))
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        reduced.collect()
        ctx.run_job(reduced, len)  # second job over the same shuffle
        profile = ctx.last_profile
        map_stages = [s for s in profile.stages if s.is_shuffle_map]
        # The map stage appears but ran zero tasks (outputs were reused).
        assert all(stage.num_tasks == 0 for stage in map_stages)


class TestMaterializeShuffle:
    def test_pde_pre_shuffle_returns_stats_and_is_reused(self, ctx):
        pairs = ctx.parallelize([(i % 4, i) for i in range(40)], 4)
        shuffled = ShuffledRDD(pairs, HashPartitioner(4))
        stats = ctx.materialize_shuffle(shuffled)
        assert stats.maps_reported == 4
        assert stats.total_records() == 40
        ctx.reset_profiles()
        shuffled.collect()
        # Final job must not re-run the map stage.
        map_tasks = sum(
            stage.num_tasks
            for profile in ctx.profiles
            for stage in profile.stages
            if stage.is_shuffle_map
        )
        assert map_tasks == 0


class TestRecovery:
    def test_result_recomputed_after_worker_loss(self, ctx):
        pairs = ctx.parallelize(range(100), 8).map(lambda x: (x % 10, 1))
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        before = sorted(reduced.collect())
        ctx.kill_worker(0)
        after = sorted(reduced.collect())
        assert before == after

    def test_mid_query_failure_recovers(self, ctx):
        ctx.inject_failure(worker_id=2, after_tasks=6)
        pairs = ctx.parallelize(range(200), 8).map(lambda x: (x % 5, 1))
        result = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert sum(result.values()) == 200
        assert ctx.last_profile.recovered_tasks > 0

    def test_cascading_recovery_through_two_shuffles(self, ctx):
        pairs = ctx.parallelize(range(60), 6).map(lambda x: (x % 6, 1))
        first = pairs.reduce_by_key(lambda a, b: a + b)
        second = first.map(lambda kv: (kv[0] % 2, kv[1])).reduce_by_key(
            lambda a, b: a + b
        )
        expected = sorted(second.collect())
        ctx.kill_worker(0)
        ctx.kill_worker(1)
        assert sorted(second.collect()) == expected

    def test_cached_partitions_rebuilt_from_lineage(self, ctx):
        source = ctx.parallelize(range(50), 4).map(lambda x: x * 2).cache()
        assert source.collect() == [x * 2 for x in range(50)]
        ctx.kill_worker(0)
        ctx.kill_worker(1)
        assert source.collect() == [x * 2 for x in range(50)]

    def test_recovery_spreads_across_survivors(self, ctx):
        pairs = ctx.parallelize(range(400), 16).map(lambda x: (x % 20, 1))
        reduced = pairs.reduce_by_key(lambda a, b: a + b, num_partitions=16)
        reduced.collect()
        ctx.kill_worker(0)
        before = {w.worker_id: w.tasks_run for w in ctx.cluster.live_workers()}
        reduced.collect()
        after = {w.worker_id: w.tasks_run for w in ctx.cluster.live_workers()}
        # More than one survivor participated in recovery.
        participants = [wid for wid in after if after[wid] > before[wid]]
        assert len(participants) >= 2

    def test_all_workers_dead_raises(self, ctx):
        for worker_id in range(ctx.cluster.num_workers - 1):
            ctx.kill_worker(worker_id)
        with pytest.raises(NoLiveWorkersError):
            ctx.kill_worker(ctx.cluster.num_workers - 1)

    def test_elasticity_new_worker_schedulable(self, ctx):
        ctx.kill_worker(0)
        worker = ctx.add_worker()
        rdd = ctx.parallelize(range(100), 12)
        assert rdd.count() == 100
        assert worker.tasks_run > 0


class TestProfiles:
    def test_history_accumulates_and_resets(self, ctx):
        ctx.reset_profiles()
        ctx.parallelize(range(4), 2).count()
        ctx.parallelize(range(4), 2).count()
        assert len(ctx.profiles) == 2
        ctx.reset_profiles()
        assert ctx.profiles == []

    def test_metrics_record_volumes(self, ctx):
        pairs = ctx.parallelize(range(100), 4).map(lambda x: (x % 4, 1))
        pairs.reduce_by_key(lambda a, b: a + b).collect()
        profile = ctx.last_profile
        map_stage = next(s for s in profile.stages if s.is_shuffle_map)
        assert map_stage.records_in == 100
        assert map_stage.shuffle_write_bytes > 0
        reduce_stage = next(s for s in profile.stages if not s.is_shuffle_map)
        assert reduce_stage.records_out == 4

    def test_describe_is_readable(self, ctx):
        ctx.parallelize(range(4), 2).count()
        text = render_query(QueryRecord(profiles=[ctx.last_profile]))
        assert "runtime profile (1 job" in text
        assert "stage 0 (result, parallelize): 2 tasks, rows 4 -> 4" in text
