"""RDD transformations and actions against list semantics."""

import pytest

from repro.errors import TaskError


class TestCreation:
    def test_parallelize_preserves_order(self, ctx):
        data = list(range(100))
        assert ctx.parallelize(data, 7).collect() == data

    def test_parallelize_fewer_items_than_partitions(self, ctx):
        rdd = ctx.parallelize([1, 2], 8)
        assert rdd.num_partitions <= 2
        assert rdd.collect() == [1, 2]

    def test_empty_rdd(self, ctx):
        assert ctx.empty_rdd().collect() == []
        assert ctx.empty_rdd().count() == 0


class TestBasicTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 2).collect() == [
            2, 4, 6,
        ]

    def test_filter(self, ctx):
        result = ctx.parallelize(range(10), 3).filter(lambda x: x % 2 == 0)
        assert result.collect() == [0, 2, 4, 6, 8]

    def test_flat_map(self, ctx):
        result = ctx.parallelize([1, 2], 2).flat_map(lambda x: [x] * x)
        assert result.collect() == [1, 2, 2]

    def test_map_partitions(self, ctx):
        result = ctx.parallelize(range(10), 5).map_partitions(
            lambda part: [sum(part)]
        )
        assert sum(result.collect()) == sum(range(10))
        assert result.num_partitions == 5

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.parallelize(range(8), 4)
        result = rdd.map_partitions_with_index(
            lambda split, part: [(split, len(part))]
        ).collect()
        assert [count for __, count in result] == [2, 2, 2, 2]
        assert [split for split, __ in result] == [0, 1, 2, 3]

    def test_glom(self, ctx):
        blocks = ctx.parallelize(range(6), 3).glom().collect()
        assert blocks == [[0, 1], [2, 3], [4, 5]]

    def test_union(self, ctx):
        left = ctx.parallelize([1, 2], 2)
        right = ctx.parallelize([3, 4], 2)
        union = left.union(right)
        assert union.collect() == [1, 2, 3, 4]
        assert union.num_partitions == 4

    def test_union_of_a_union_is_the_flat_union(self, ctx):
        parts = [ctx.parallelize(range(3 * i, 3 * i + 3), 2) for i in range(4)]
        nested = ctx.union(
            [ctx.union([ctx.union(parts[:2]), parts[2]]), parts[3]]
        )
        chained = parts[0].union(parts[1]).union(parts[2]).union(parts[3])
        # One level, every input a direct parent, in append order ...
        assert [dep.rdd for dep in chained.dependencies] == parts
        # ... with the partitions and rows of the nested spelling.
        assert chained.num_partitions == nested.num_partitions == 8
        assert chained.glom().collect() == nested.glom().collect()
        assert chained.collect() == list(range(12))

    def test_union_of_a_cached_union_reads_its_blocks(self, ctx):
        left = ctx.parallelize([1, 2], 2).union(ctx.parallelize([3], 1))
        left.cache().collect()
        wider = left.union(ctx.parallelize([4], 1))
        assert [dep.rdd for dep in wider.dependencies][0] is left
        assert wider.collect() == [1, 2, 3, 4]

    def test_distinct(self, ctx):
        result = ctx.parallelize([1, 2, 2, 3, 3, 3], 3).distinct()
        assert sorted(result.collect()) == [1, 2, 3]

    def test_sample_deterministic(self, ctx):
        rdd = ctx.parallelize(range(1000), 8)
        first = rdd.sample(0.3, seed=5).collect()
        second = rdd.sample(0.3, seed=5).collect()
        assert first == second
        assert 150 < len(first) < 450

    def test_sample_bounds_checked(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 1).sample(1.5)

    def test_key_by(self, ctx):
        result = ctx.parallelize(["aa", "b"], 2).key_by(len).collect()
        assert result == [(2, "aa"), (1, "b")]

    def test_zip_with_index(self, ctx):
        result = ctx.parallelize(["a", "b", "c", "d"], 3).zip_with_index()
        assert result.collect() == [
            ("a", 0), ("b", 1), ("c", 2), ("d", 3),
        ]

    def test_coalesce_reduces_partitions(self, ctx):
        rdd = ctx.parallelize(range(12), 6).coalesce(2)
        assert rdd.num_partitions == 2
        assert sorted(rdd.collect()) == list(range(12))

    def test_coalesce_noop_when_bigger(self, ctx):
        rdd = ctx.parallelize(range(4), 2)
        assert rdd.coalesce(8) is rdd

    def test_coalesce_grouped_explicit(self, ctx):
        rdd = ctx.parallelize(range(8), 4)
        grouped = rdd.coalesce_grouped([[0, 3], [1, 2]])
        assert grouped.num_partitions == 2
        assert sorted(grouped.collect()) == list(range(8))

    def test_repartition_spreads_evenly(self, ctx):
        rdd = ctx.parallelize(range(100), 2).repartition(8)
        sizes = [len(b) for b in rdd.glom().collect()]
        assert sum(sizes) == 100
        assert len(sizes) == 8

    def test_prune_partitions(self, ctx):
        from repro.engine.rdd import PrunedRDD

        rdd = ctx.parallelize(range(10), 5)
        pruned = PrunedRDD(rdd, [1, 3])
        assert pruned.num_partitions == 2
        assert pruned.collect() == [2, 3, 6, 7]

    def test_prune_out_of_range_rejected(self, ctx):
        from repro.engine.rdd import PrunedRDD

        rdd = ctx.parallelize(range(10), 5)
        with pytest.raises(IndexError):
            PrunedRDD(rdd, [7])


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(57), 8).count() == 57

    def test_reduce(self, ctx):
        assert ctx.parallelize(range(1, 11), 4).reduce(
            lambda a, b: a + b
        ) == 55

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.empty_rdd().reduce(lambda a, b: a + b)

    def test_fold(self, ctx):
        assert ctx.parallelize([1, 2, 3], 3).fold(0, lambda a, b: a + b) == 6

    def test_aggregate(self, ctx):
        total, count = ctx.parallelize(range(10), 4).aggregate(
            (0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert (total, count) == (45, 10)

    def test_take_stops_early(self, ctx):
        assert ctx.parallelize(range(100), 10).take(3) == [0, 1, 2]
        assert ctx.parallelize(range(3), 3).take(10) == [0, 1, 2]
        assert ctx.parallelize(range(3), 3).take(0) == []

    def test_first(self, ctx):
        assert ctx.parallelize([9, 8], 2).first() == 9
        with pytest.raises(ValueError):
            ctx.empty_rdd().first()

    def test_top(self, ctx):
        assert ctx.parallelize([5, 1, 9, 3], 2).top(2) == [9, 5]

    def test_top_with_key(self, ctx):
        result = ctx.parallelize(["aaa", "b", "cc"], 2).top(2, key=len)
        assert result == ["aaa", "cc"]

    def test_sum_min_max_mean(self, ctx):
        rdd = ctx.parallelize([4.0, 1.0, 7.0], 3)
        assert rdd.sum() == 12.0
        assert rdd.min() == 1.0
        assert rdd.max() == 7.0
        assert rdd.mean() == 4.0

    def test_mean_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.empty_rdd().mean()

    def test_count_by_value(self, ctx):
        counts = ctx.parallelize(["a", "b", "a"], 2).count_by_value()
        assert counts == {"a": 2, "b": 1}

    def test_foreach_partition(self, ctx):
        seen = []
        ctx.parallelize(range(6), 3).foreach_partition(
            lambda part: seen.append(len(part))
        )
        assert sorted(seen) == [2, 2, 2]

    def test_user_exception_wrapped_as_task_error(self, ctx):
        rdd = ctx.parallelize([1, 0], 1).map(lambda x: 1 // x)
        with pytest.raises(TaskError):
            rdd.collect()


class TestSorting:
    def test_sort_by_ascending(self, ctx):
        data = [5, 3, 9, 1, 7, 2]
        assert ctx.parallelize(data, 3).sort_by(lambda x: x).collect() == (
            sorted(data)
        )

    def test_sort_by_descending(self, ctx):
        data = [5, 3, 9, 1]
        result = ctx.parallelize(data, 2).sort_by(
            lambda x: x, ascending=False
        ).collect()
        assert result == sorted(data, reverse=True)

    def test_sort_by_key_function(self, ctx):
        data = ["ccc", "a", "bb"]
        result = ctx.parallelize(data, 2).sort_by(len).collect()
        assert result == ["a", "bb", "ccc"]

    def test_sort_empty(self, ctx):
        assert ctx.empty_rdd().sort_by(lambda x: x).collect() == []

    def test_sort_large_spread_over_partitions(self, ctx):
        import random

        rng = random.Random(3)
        data = [rng.randint(0, 10**6) for __ in range(2000)]
        result = ctx.parallelize(data, 16).sort_by(lambda x: x, num_partitions=8)
        assert result.collect() == sorted(data)


class TestCaching:
    def test_cache_roundtrip(self, ctx):
        calls = []

        def trace(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(10), 2).map(trace).cache()
        assert rdd.collect() == list(range(10))
        first_calls = len(calls)
        assert rdd.collect() == list(range(10))
        assert len(calls) == first_calls  # second read from cache

    def test_unpersist_recomputes(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(5), 1).map(
            lambda x: calls.append(x) or x
        ).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 10

    def test_cached_bytes_tracked(self, ctx):
        rdd = ctx.parallelize(range(1000), 4).cache()
        rdd.collect()
        assert ctx.cache_tracker.cached_bytes(rdd.id) > 0
        assert len(ctx.cache_tracker.cached_partitions(rdd.id)) == 4
