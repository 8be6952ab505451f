"""Partial DAG Execution: bin packing, reducer choice, aggregation path."""

import heapq
import random

import pytest

from repro import SharkContext
from repro.datatypes import INT, STRING, Schema
from repro.pde import (
    choose_num_reducers,
    decide_join_strategy,
    pack_partitions,
)
from repro.pde.binpack import imbalance
from repro.sql.planner import PlannerConfig


class TestBinPacking:
    def test_balances_uniform_sizes(self):
        sizes = [10] * 12
        groups = pack_partitions(sizes, 4)
        assert len(groups) == 4
        assert imbalance(sizes, groups) == 1.0

    def test_balances_skewed_sizes(self):
        sizes = [100, 1, 1, 1, 1, 1, 50, 50]
        groups = pack_partitions(sizes, 3)
        assert imbalance(sizes, groups) < 1.6

    def test_every_partition_assigned_once(self):
        sizes = [5, 3, 8, 1, 9, 2]
        groups = pack_partitions(sizes, 2)
        flat = sorted(i for group in groups for i in group)
        assert flat == list(range(6))

    def test_more_bins_than_partitions(self):
        groups = pack_partitions([5, 5], 10)
        assert len(groups) == 2

    def test_deterministic(self):
        sizes = [7, 2, 9, 4, 4, 4]
        assert pack_partitions(sizes, 3) == pack_partitions(sizes, 3)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            pack_partitions([1], 0)

    def test_empty_sizes(self):
        assert pack_partitions([], 3) == [[]]

    def test_one_bin_packs_as_the_heap_loop_would(self):
        rng = random.Random(0)
        for _ in range(50):
            sizes = [rng.randrange(10_000) for _ in range(rng.randrange(40))]
            for bins in (1, 2, 3, 8):
                assert pack_partitions(sizes, bins) == _heap_packing(
                    sizes, bins
                )
        assert pack_partitions([], 1) == _heap_packing([], 1) == [[]]
        assert pack_partitions([7], 5) == _heap_packing([7], 5) == [[0]]


def _heap_packing(sizes, num_bins):
    """Longest-processing-time-first over a heap of bins, for every bin
    count: the reference ``pack_partitions`` answers."""
    num_bins = min(num_bins, max(len(sizes), 1))
    heap = [(0, index) for index in range(num_bins)]
    groups = [[] for _ in range(num_bins)]
    for partition in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        total, bin_index = heapq.heappop(heap)
        groups[bin_index].append(partition)
        heapq.heappush(heap, (total + sizes[partition], bin_index))
    return [sorted(group) for group in groups if group] or [[]]


class TestReducerChoice:
    def test_scales_with_volume(self):
        small = choose_num_reducers(10_000, target_partition_bytes=100_000)
        large = choose_num_reducers(10_000_000, target_partition_bytes=100_000)
        assert small == 1
        assert large == 100

    def test_clamped_to_bounds(self):
        assert choose_num_reducers(10**15, max_reducers=64) == 64
        assert choose_num_reducers(0, min_reducers=2) == 2


class TestJoinDecision:
    def test_prefers_smaller_broadcastable_side(self):
        decision = decide_join_strategy(1000, 500, broadcast_threshold=2000)
        assert decision.strategy == "broadcast_right"

    def test_threshold_respected(self):
        decision = decide_join_strategy(10**9, 10**9, broadcast_threshold=100)
        assert decision.strategy == "shuffle"

    def test_unknown_side_ignored(self):
        decision = decide_join_strategy(None, 10, broadcast_threshold=100)
        assert decision.strategy == "broadcast_right"

    def test_broadcastability_constraints(self):
        decision = decide_join_strategy(
            10, 10, broadcast_threshold=100,
            left_broadcastable=False, right_broadcastable=False,
        )
        assert decision.strategy == "shuffle"

    def test_reason_mentions_bytes(self):
        decision = decide_join_strategy(10, None, broadcast_threshold=100)
        assert "10" in decision.reason


class TestPdeAggregation:
    def _shark(self, **config_kwargs):
        config = PlannerConfig(**config_kwargs)
        shark = SharkContext(num_workers=4, config=config)
        shark.create_table(
            "events", Schema.of(("user", STRING), ("n", INT)), cached=True
        )
        # Heavy skew: one hot key plus a long tail.
        rows = [("hot", 1)] * 3000 + [
            (f"user{i}", 1) for i in range(500)
        ]
        shark.load_rows("events", rows)
        return shark

    def _reference(self):
        ref = {f"user{i}": 1 for i in range(500)}
        ref["hot"] = 3000
        return ref

    def test_pde_aggregation_correct(self):
        shark = self._shark(enable_pde=True)
        result = shark.sql(
            "SELECT user, SUM(n) FROM events GROUP BY user"
        )
        assert dict(result.rows) == self._reference()

    def test_pde_coalesces_fine_buckets(self):
        shark = self._shark(enable_pde=True)
        result = shark.sql(
            "SELECT user, SUM(n) FROM events GROUP BY user"
        )
        notes = " ".join(result.report.notes)
        assert "PDE" in notes

    def test_fixed_reducers_override(self):
        shark = self._shark(num_reducers=2)
        result = shark.sql(
            "SELECT user, SUM(n) FROM events GROUP BY user"
        )
        assert dict(result.rows) == self._reference()

    def test_pde_off_still_correct(self):
        shark = self._shark(enable_pde=False)
        result = shark.sql(
            "SELECT user, SUM(n) FROM events GROUP BY user"
        )
        assert dict(result.rows) == self._reference()

    def test_only_the_aggregate_merges_on_one_reducer(self):
        """A static plan with one reducer (an MPP engine's coordinator
        merge) sizes GROUP BY only: a shuffle join and DISTINCT keep one
        reduce partition per core."""
        contexts = [
            SharkContext(num_workers=4, config=PlannerConfig(
                broadcast_threshold_bytes=-1, **overrides
            ))
            for overrides in ({"enable_pde": False, "num_reducers": 1}, {})
        ]
        for shark in contexts:
            shark.create_table("t", Schema.of(("k", STRING), ("v", INT)))
            shark.load_rows("t", [(f"k{i % 10}", i) for i in range(200)])
        static, default = contexts
        cores = static.engine.default_parallelism
        for query, reducers in (
            ("SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k", cores),
            ("SELECT DISTINCT k FROM t", cores),
            ("SELECT k, COUNT(*) FROM t GROUP BY k", 1),
        ):
            rows = static.sql(query).rows
            assert static.engine.profiles[-1].stages[-1].num_tasks == reducers
            assert sorted(rows) == sorted(default.sql(query).rows)
