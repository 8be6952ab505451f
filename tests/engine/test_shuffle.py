"""Shuffle manager: bucketing, stats, fetch failures, map-side combine."""

import functools

import pytest

from repro.engine.dependencies import Aggregator, ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import (
    MapOutputStats,
    MapStatus,
    ShuffleManager,
    log_decode_size,
    log_encode_size,
)
from repro.errors import FetchFailedError


def _write(manager, dep, map_partition, worker_id, records):
    """What a map task does: hand over its records as one keyed batch."""
    manager.write_map_output(
        dep, map_partition, worker_id, dep.keyed_batch(records)
    )


def _make_dep(ctx, num_reduces=4, **kwargs):
    parent = ctx.parallelize([(i, 1) for i in range(20)], 2)
    return parent, ShuffleDependency(
        parent, HashPartitioner(num_reduces), **kwargs
    )


class TestWriteAndFetch:
    def test_roundtrip_all_records(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        records = [(i, i * 10) for i in range(12)]
        _write(manager, dep, 0, 0, records[:6])
        _write(manager, dep, 1, 1, records[6:])
        fetched = []
        for reduce_partition in range(4):
            fetched.extend(dep.records(manager.fetch(dep.shuffle_id, reduce_partition)))
        assert sorted(fetched) == sorted(records)

    def test_bucketing_respects_partitioner(self, ctx):
        parent, dep = _make_dep(ctx, num_reduces=3)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=1)
        _write(manager, dep, 0, 0, [(i, None) for i in range(30)])
        partitioner = dep.partitioner
        for reduce_partition in range(3):
            for key, __ in dep.records(manager.fetch(dep.shuffle_id, reduce_partition)):
                assert partitioner.partition(key) == reduce_partition

    def test_register_idempotent(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [(1, 1)])
        manager.register(dep, num_maps=2)  # must not wipe outputs
        assert manager.missing_maps(dep.shuffle_id) == [1]

    def test_maps_reported_counts_maps_that_ran(self, ctx):
        shuffled = ctx.parallelize([(i, i) for i in range(40)], 4).partition_by(
            HashPartitioner(3)
        )
        dep = shuffled.shuffle_dep
        ctx.shuffle_manager.register(dep, 4)
        stats = ctx.shuffle_manager.stats(dep.shuffle_id)
        assert stats.maps_reported == 0
        assert stats.total_records() == 0
        assert ctx.materialize_shuffle(shuffled) is stats
        assert stats.maps_reported == 4
        assert stats.total_records() == 40


class TestMapSideCombine:
    def test_combines_before_bucketing(self, ctx):
        parent, dep = _make_dep(
            ctx,
            aggregator=Aggregator(
                lambda v: v, lambda a, b: a + b, lambda a, b: a + b
            ),
            map_side_combine=True,
        )
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=1)
        _write(manager, dep, 0, 0, [("k", 1)] * 100 + [("j", 2)] * 50
        )
        stats = manager.stats(dep.shuffle_id)
        # 150 input records collapse to 2 combined records.
        assert sum(stats.statuses[0].rows) == 2


class TestStatistics:
    def test_bucket_sizes_log_encoded(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=1)
        _write(manager, dep, 0, 0, [(i, "x" * 50) for i in range(100)]
        )
        stats = manager.stats(dep.shuffle_id)
        total = stats.map_output_bytes(0)
        assert total > 0
        # Each bucket reaches PDE through its one-byte code, with bounded
        # (~10%) error.
        sizes = stats.statuses[0].sizes
        assert total == sum(log_decode_size(log_encode_size(s)) for s in sizes)
        assert abs(total - sum(sizes)) <= 0.11 * sum(sizes)

    def test_reduce_input_sizes(self, ctx):
        parent, dep = _make_dep(ctx, num_reduces=2)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [(0, "a")])
        _write(manager, dep, 1, 1, [(0, "b"), (1, "c")])
        stats = manager.stats(dep.shuffle_id)
        sizes = stats.reduce_input_sizes()
        assert len(sizes) == 2
        assert sizes == [
            sum(
                log_decode_size(log_encode_size(status.sizes[bucket]))
                for status in stats.statuses.values()
            )
            for bucket in range(2)
        ]

    def test_custom_collectors_run_and_merge(self, ctx):
        # The statistics map tasks report merge in map-partition order:
        # records from the statuses, heavy keys from the skew audit.
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [("hot", 1)] * 30 + [("a", 1)])
        _write(manager, dep, 1, 1, [("hot", 1)] * 20 + [("b", 1)])
        stats = manager.stats(dep.shuffle_id)
        assert stats.total_records() == 52
        record = stats.skew_record(
            0, functools.partial(manager._map_output_labels, dep.shuffle_id)
        )
        assert record["heavy_keys"][0] == ["'hot'", 50]

    def test_rerun_map_overwrites_its_status(self, ctx):
        parent, dep = _make_dep(ctx, num_reduces=2)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [(0, "a"), (1, "b")])
        _write(manager, dep, 1, 1, [(1, "c")])
        stats = manager.stats(dep.shuffle_id)
        reported = dict(stats.statuses)
        _write(manager, dep, 0, 2, [(0, "a"), (1, "b")])  # re-run elsewhere
        assert stats.statuses == reported
        assert stats.maps_reported == 2
        assert stats.total_records() == 3

    def test_sample_is_every_map_sample_in_map_order(self):
        stats = MapOutputStats(3, 1)
        stats.statuses[2] = MapStatus([1], [9], sample=["c"])
        stats.statuses[0] = MapStatus([2], [9], sample=["a", "b"])
        stats.statuses[1] = MapStatus([0], [0])  # drew nothing
        assert stats.sample == ["a", "b", "c"]

    def test_cut_runs_rewrites_each_status(self, ctx, monkeypatch):
        seen = []
        real = ShuffleManager.cut_runs

        def cutting(self, dep):
            stats = self.stats(dep.shuffle_id)
            seen.append({m: s.rows for m, s in stats.statuses.items()})
            assert all(s.sample for s in stats.statuses.values())
            real(self, dep)
            seen.append({m: s.rows for m, s in stats.statuses.items()})
            assert not any(s.sample for s in stats.statuses.values())
            assert stats.num_reduces == 3

        monkeypatch.setattr(ShuffleManager, "cut_runs", cutting)
        rdd = ctx.parallelize(range(400), 4).sort_by(
            lambda x: -x, num_partitions=3
        )
        uncut, cut = seen
        # One run per map task, then the same rows in three ranges.
        assert uncut == {m: [100] for m in range(4)}
        assert sorted(cut) == [0, 1, 2, 3]
        assert all(len(rows) == 3 and sum(rows) == 100 for rows in cut.values())
        assert rdd.collect() == list(range(399, -1, -1))


class TestFailures:
    def test_fetch_from_dead_worker_raises(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=1)
        _write(manager, dep, 0, 2, [(1, 1)])
        ctx.cluster.kill_worker(2)
        with pytest.raises(FetchFailedError) as info:
            manager.fetch(dep.shuffle_id, 0)
        assert info.value.map_partition == 0

    def test_missing_maps_after_kill(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=3)
        _write(manager, dep, 0, 0, [(1, 1)])
        _write(manager, dep, 1, 1, [(2, 2)])
        _write(manager, dep, 2, 1, [(3, 3)])
        assert manager.missing_maps(dep.shuffle_id) == []
        ctx.cluster.kill_worker(1)
        assert manager.missing_maps(dep.shuffle_id) == [1, 2]

    def test_rewrite_after_recovery_clears_missing(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=1)
        _write(manager, dep, 0, 1, [(1, 1)])
        ctx.cluster.kill_worker(1)
        assert manager.missing_maps(dep.shuffle_id) == [0]
        _write(manager, dep, 0, 0, [(1, 1)])
        assert manager.missing_maps(dep.shuffle_id) == []


class TestLogEncoding:
    def test_roundtrip_error_bounded(self):
        for size in [1, 10, 1000, 10**6, 10**9, 32 * 10**9]:
            decoded = log_decode_size(log_encode_size(size))
            assert abs(decoded - size) / size < 0.11

    def test_zero_maps_to_zero(self):
        assert log_encode_size(0) == 0
        assert log_decode_size(0) == 0

    def test_single_byte_range(self):
        assert 0 <= log_encode_size(32 * 1024**3) <= 255
