"""Shuffle manager: bucketing, stats, fetch failures, map-side combine."""

import pytest

from repro.engine.accumulator import (
    HeavyHittersStat,
    RecordCountStat,
    log_decode_size,
)
from repro.engine.dependencies import Aggregator, ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import ShuffleManager
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
        assert stats.record_counts[0] == 2


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
        # Log decoding has bounded (~10%) error per bucket.
        for code in stats.encoded_bucket_sizes[0]:
            assert 0 <= code <= 255

    def test_reduce_input_sizes(self, ctx):
        parent, dep = _make_dep(ctx, num_reduces=2)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [(0, "a")])
        _write(manager, dep, 1, 1, [(0, "b"), (1, "c")])
        sizes = stats = manager.stats(dep.shuffle_id).reduce_input_sizes()
        assert len(sizes) == 2
        assert all(size >= 0 for size in sizes)

    def test_custom_collectors_run_and_merge(self, ctx):
        parent, dep = _make_dep(
            ctx,
            stats_collectors=(RecordCountStat(), HeavyHittersStat(capacity=4)),
        )
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [("hot", 1)] * 30 + [("a", 1)])
        _write(manager, dep, 1, 1, [("hot", 1)] * 20 + [("b", 1)])
        stats = manager.stats(dep.shuffle_id)
        assert stats.custom["record_counts"] == 52
        hitters = stats.custom["heavy_hitters"]
        assert max(hitters, key=hitters.get) == "hot"


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
        from repro.engine.accumulator import log_encode_size

        for size in [1, 10, 1000, 10**6, 10**9, 32 * 10**9]:
            decoded = log_decode_size(log_encode_size(size))
            assert abs(decoded - size) / size < 0.11

    def test_zero_maps_to_zero(self):
        from repro.engine.accumulator import log_encode_size

        assert log_encode_size(0) == 0
        assert log_decode_size(0) == 0

    def test_single_byte_range(self):
        from repro.engine.accumulator import log_encode_size

        assert 0 <= log_encode_size(32 * 1024**3) <= 255
