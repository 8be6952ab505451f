"""Shuffle manager: bucketing, stats, fetch failures, map-side combine."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.batch import CodedVector, ColumnBatch, Vector
from repro.engine.context import EngineContext
from repro.engine.dependencies import Aggregator, ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import (
    MapOutputStats,
    MapStatus,
    ShuffleBlock,
    ShuffleManager,
    _gather_buckets,
    log_decode_size,
    log_encode_size,
)
from repro.errors import FetchFailedError


def _write(manager, dep, map_partition, worker_id, records):
    """What a map task does: hand over its records as one keyed batch."""
    manager.write_map_output(
        dep, map_partition, worker_id, dep.keyed_batch(records)
    )


def _through_the_code(size):
    return log_decode_size(log_encode_size(size))


def _check_decoded_once(stats):
    """Every size statistic equals the sum of its buckets' sizes, each
    decoded on its own through its code (the reference)."""
    statuses = stats.statuses.values()
    per_reduce = [
        sum(_through_the_code(status.sizes[bucket]) for status in statuses)
        for bucket in range(stats.num_reduces)
    ]
    assert stats.reduce_input_sizes() == per_reduce
    assert [
        stats.reduce_input_bytes(bucket) for bucket in range(stats.num_reduces)
    ] == per_reduce
    for map_partition, status in stats.statuses.items():
        assert stats.map_output_bytes(map_partition) == sum(
            map(_through_the_code, status.sizes)
        )
    assert stats.total_output_bytes() == sum(per_reduce)


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


def _by_slices(blocks, buckets):
    """The reference fetch: every (bucket, block) slice with bytes, bucket
    by bucket and within one in block order, concatenated."""
    return ColumnBatch.concat_slices(
        [
            (block.batch, block.offsets[bucket], block.offsets[bucket + 1])
            for bucket in buckets
            for block in blocks
            if block.sizes[bucket]
        ]
        or [(blocks[0].batch, 0, 0)]
    )


def _kinds(batch):
    return [
        (type(vector), vector.is_array, getattr(vector.data, "dtype", None))
        for vector in batch.vectors()
    ]


#: One column of ``n`` rows of a kind a map output may hold.
_COLUMN_KINDS = {
    "int64": lambda rng, n: Vector(rng.integers(-50, 50, n)),
    "float64": lambda rng, n: Vector(rng.normal(size=n).round(2)),
    "datetime64": lambda rng, n: Vector(
        rng.integers(0, 20_000, n).astype("datetime64[D]")
    ),
    "nullable": lambda rng, n: Vector(
        rng.integers(0, 9, n), rng.random(n) < 0.7
    ),
    "coded strings": lambda rng, n: CodedVector(
        rng.integers(0, 3, n), Vector(["a", "bb", None])
    ),
    "coded ints": lambda rng, n: CodedVector(
        rng.integers(0, 3, n),
        Vector(np.array([7, -1, 0]), np.array([True, True, False])),
    ),
    "object": lambda rng, n: Vector(
        [[None, "x", 1, 2.5, (1, "y")][i] for i in rng.integers(0, 5, n)]
    ),
}


@st.composite
def _map_outputs(draw):
    """Blocks of one width over one reduce count: random columns (of any
    kind, block by block) and random bucket offsets, empty buckets too."""
    num_reduces = draw(st.integers(1, 8))
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for __ in range(draw(st.integers(1, 5))):
        counts = draw(
            st.lists(
                st.integers(0, 4) | st.just(0),
                min_size=num_reduces,
                max_size=num_reduces,
            )
        )
        rows = sum(counts)
        kinds = draw(
            st.lists(
                st.sampled_from(sorted(_COLUMN_KINDS)),
                min_size=width,
                max_size=width,
            )
        )
        batch = ColumnBatch(
            [_COLUMN_KINDS[kind](rng, rows) for kind in kinds], rows
        )
        offsets = [0, *np.cumsum(counts).tolist()]
        sizes = [10 * count for count in counts]  # bytes where rows are
        blocks.append(ShuffleBlock(batch, offsets, sizes))
    return num_reduces, blocks


class TestFetchOrder:
    @settings(max_examples=300, deadline=None)
    @given(_map_outputs(), st.data())
    def test_a_fetch_is_its_slices_end_to_end(self, outputs, data):
        num_reduces, blocks = outputs
        single = st.integers(0, num_reduces - 1).map(lambda b: [b])
        contiguous = st.tuples(
            st.integers(0, num_reduces - 1), st.integers(1, num_reduces)
        ).map(lambda ab: list(range(ab[0], min(num_reduces, ab[0] + ab[1]))))
        packed = st.lists(
            st.integers(0, num_reduces - 1), min_size=1, unique=True
        )
        buckets = data.draw(single | contiguous | packed)
        fetched = _gather_buckets(blocks, buckets)
        expected = _by_slices(blocks, buckets)
        assert fetched.num_rows == expected.num_rows
        rows = fetched.materialize_rows()
        assert rows == expected.materialize_rows()
        assert repr(rows) == repr(expected.materialize_rows())
        assert _kinds(fetched) == _kinds(expected)

    def test_a_coalesced_fetch_equals_its_slices(self, ctx):
        parent, dep = _make_dep(ctx, num_reduces=6)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=3)
        for map_partition in range(3):
            _write(
                manager, dep, map_partition, map_partition,
                [(f"k{i % 7}", i * 1.5) for i in range(map_partition, 40, 3)],
            )
        blocks = [
            manager._stored_block(dep.shuffle_id, m) for m in range(3)
        ]
        for group in ([2], [0, 1, 2], [5, 1, 3], list(range(6)), []):
            fetched = manager.fetch(dep.shuffle_id, group)
            expected = _by_slices(blocks, group)
            assert fetched.materialize_rows() == expected.materialize_rows()
            assert _kinds(fetched) == _kinds(expected)

    def test_a_lost_output_fails_the_fetch_at_the_first(self, ctx):
        parent, dep = _make_dep(ctx)
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=3)
        _write(manager, dep, 0, 0, [(1, 1)])
        _write(manager, dep, 1, 1, [(2, 2)])
        _write(manager, dep, 2, 1, [(3, 3)])
        ctx.cluster.kill_worker(1)
        with pytest.raises(FetchFailedError) as info:
            manager.fetch(dep.shuffle_id, [0, 1, 2, 3])
        assert info.value.map_partition == 1


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

    @given(
        st.integers(1, 6).flatmap(
            lambda reduces: st.tuples(
                st.just(reduces),
                st.lists(
                    st.lists(
                        st.integers(0, 2**40),
                        min_size=reduces,
                        max_size=reduces,
                    ),
                    max_size=5,
                ),
            )
        )
    )
    def test_sizes_are_decoded_once_as_the_master_reads_them(self, shape):
        num_reduces, sizes = shape
        stats = MapOutputStats(len(sizes), num_reduces)
        for map_partition, bucket_sizes in enumerate(sizes):
            stats.statuses[map_partition] = MapStatus(
                [1] * num_reduces, bucket_sizes
            )
        _check_decoded_once(stats)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cut_runs_report_decoded_sizes(self, seed, monkeypatch):
        real = ShuffleManager.cut_runs

        def cutting(self, dep):
            real(self, dep)
            _check_decoded_once(self.stats(dep.shuffle_id))
            cut.append(dep.shuffle_id)

        cut = []
        monkeypatch.setattr(ShuffleManager, "cut_runs", cutting)
        rng = random.Random(seed)
        words = ["x" * rng.randrange(200) for _ in range(300)]
        ctx = EngineContext(num_workers=4, cores_per_worker=2)
        rdd = ctx.parallelize(words, 4).sort_by(len, num_partitions=3)
        assert rdd.collect() == sorted(words, key=len)
        assert len(cut) == 1

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

    def test_outputs_read_from_a_dead_workers_block_are_lost(self, ctx):
        # Map 0 read its cached partition from worker 3 but ran on worker
        # 0; map 1 read nothing cached.  Losing worker 3 loses map 0's
        # output too, so its re-run rebuilds the block.
        parent = ctx.parallelize([(i, 1) for i in range(20)], 2).cache()
        ctx.cache_tracker.put(parent.id, 0, 3, [(0, 1)])
        dep = ShuffleDependency(parent, HashPartitioner(4))
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=2)
        _write(manager, dep, 0, 0, [(1, 1)])
        _write(manager, dep, 1, 1, [(2, 2)])
        ctx.cluster.kill_worker(3)
        assert manager.missing_maps(dep.shuffle_id) == [0]
        assert ctx.cluster.pinned_block_ids() == {
            f"shuffle_{dep.shuffle_id}_1"
        }

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


class TestReportedSizes:
    """A status reports each size through its code, memoized or not."""

    def test_every_small_size_and_each_code_boundary(self):
        # Sizes to 2**20 reach codes up to 146; each code past that starts
        # near 1.1 ** (code - 1.5), where its rounding turns up.
        near = [
            int(1.1 ** (code - 1.5)) + step
            for code in range(147, 256)
            for step in (-1, 0, 1, 2)
        ]
        assert {log_encode_size(size) for size in near} >= set(range(147, 256))
        sizes = [*range(2**20 + 1), *near]
        status = MapStatus([1] * len(sizes), sizes)
        assert status.reported == list(map(_through_the_code, sizes))

    @given(st.lists(st.integers(0, 2**40), max_size=40))
    def test_random_sizes(self, sizes):
        status = MapStatus([1] * len(sizes), sizes)
        assert status.reported == list(map(_through_the_code, sizes))
