"""Driver accumulators and the PDE statistics a map status carries."""

import functools

import pytest

from repro.engine.accumulator import Accumulator
from repro.engine.dependencies import ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import (
    HEAVY_KEYS_TOP_N,
    log_decode_size,
    log_encode_size,
)


class TestAccumulator:
    def test_default_add(self):
        acc = Accumulator(0)
        acc.add(3)
        acc.add(4)
        assert acc.value == 7

    def test_custom_add(self):
        acc = Accumulator([], add=lambda a, b: a + [b])
        acc.add("x")
        acc.add("y")
        assert acc.value == ["x", "y"]

    def test_reset(self):
        acc = Accumulator(5)
        acc.reset(0)
        assert acc.value == 0


class TestLogEncoding:
    @pytest.mark.parametrize(
        "size", [1, 7, 128, 4096, 10**6, 123456789, 32 * 1024**3]
    )
    def test_relative_error_within_ten_percent(self, size):
        decoded = log_decode_size(log_encode_size(size))
        assert abs(decoded - size) / size <= 0.11

    def test_monotonic(self):
        codes = [log_encode_size(2**i) for i in range(1, 35)]
        assert codes == sorted(codes)


def _exchange(ctx, maps):
    """One single-bucket exchange whose map partition ``i`` wrote the
    (key, value) records ``maps[i]``: the shuffle manager and the
    dependency."""
    dep = ShuffleDependency(ctx.parallelize([], len(maps)), HashPartitioner(1))
    manager = ctx.shuffle_manager
    manager.register(dep, num_maps=len(maps))
    for map_partition, records in enumerate(maps):
        manager.write_map_output(
            dep, map_partition, map_partition % 2, dep.keyed_batch(records)
        )
    return manager, dep


def _stats(ctx, maps):
    manager, dep = _exchange(ctx, maps)
    return manager.stats(dep.shuffle_id)


def _heavy_keys(ctx, maps) -> list:
    """The skew audit's heavy keys of the exchange: the statistic that
    reads keys, labelled from the stored blocks when asked."""
    manager, dep = _exchange(ctx, maps)
    record = manager.stats(dep.shuffle_id).skew_record(
        0, functools.partial(manager._map_output_labels, dep.shuffle_id)
    )
    return [(label, count) for label, count in record["heavy_keys"]]


class TestPartitionSizeStat:
    def test_observe_returns_single_byte_code(self, ctx):
        stats = _stats(ctx, [[("k", "v" * 100)] * 10])
        (size,) = stats.statuses[0].sizes
        assert size > 0
        assert 1 <= log_encode_size(size) <= 255
        assert stats.map_output_bytes(0) == log_decode_size(
            log_encode_size(size)
        )

    def test_merge_approximates_sum(self, ctx):
        stats = _stats(ctx, [[(i, "x" * 100) for i in range(10)]] * 2)
        exact = sum(status.sizes[0] for status in stats.statuses.values())
        # Each map's size goes through its code: <= ~10 % error each.
        assert abs(stats.total_output_bytes() - exact) <= 0.11 * exact
        assert stats.reduce_input_sizes() == [stats.total_output_bytes()]

    def test_empty_observation(self, ctx):
        stats = _stats(ctx, [[]])
        assert stats.statuses[0].sizes == [0]
        assert stats.total_output_bytes() == 0


class TestRecordCountStat:
    def test_counts_and_merges(self, ctx):
        stats = _stats(ctx, [[(i, i) for i in range(7)], [(0, 0)] * 5])
        assert [status.rows for status in stats.statuses.values()] == [
            [7], [5],
        ]
        assert stats.total_records() == 12


class TestHeavyHitters:
    def test_finds_dominant_key(self, ctx):
        records = [("hot", 1)] * 500 + [(f"cold{i}", 1) for i in range(200)]
        heavy = _heavy_keys(ctx, [records])
        assert heavy[0] == ("'hot'", 500)
        assert len(heavy) == HEAVY_KEYS_TOP_N

    def test_merge_caps_capacity(self, ctx):
        def of(counts):
            return [(key, 1) for key, n in counts.items() for __ in range(n)]

        left = of({"a": 10, "b": 5, "c": 1, "f": 4})
        right = of({"d": 20, "e": 2, "a": 3, "g": 1})
        heavy = _heavy_keys(ctx, [left, right])
        assert heavy == [
            ("'d'", 20), ("'a'", 13), ("'b'", 5), ("'f'", 4), ("'e'", 2)
        ]

    def test_space_saving_overestimates_only(self, ctx):
        # A map's keys are counted exactly: never above their frequency.
        records = [("x", 1)] * 50 + [("y", 1)] * 30 + [("z", 1)] * 5
        assert _heavy_keys(ctx, [records]) == [
            ("'x'", 50), ("'y'", 30), ("'z'", 5)
        ]
