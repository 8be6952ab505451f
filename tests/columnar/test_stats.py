"""Partition statistics and the map-pruning predicates they answer."""

from datetime import date

from repro.columnar.stats import (
    ColumnStats,
    DISTINCT_LIMIT,
    PartitionStats,
)


class TestColumnStats:
    def test_min_max_tracking(self):
        stats = ColumnStats.from_values([5, 1, 9, 3])
        assert stats.minimum == 1
        assert stats.maximum == 9
        assert stats.row_count == 4

    def test_null_counting(self):
        stats = ColumnStats.from_values([1, None, 2, None])
        assert stats.null_count == 2
        assert stats.minimum == 1

    def test_distinct_set_kept_while_small(self):
        stats = ColumnStats.from_values(["a", "b", "a"])
        assert stats.distinct_values == {"a", "b"}

    def test_distinct_set_dropped_over_limit(self):
        stats = ColumnStats.from_values(list(range(DISTINCT_LIMIT + 5)))
        assert stats.distinct_values is None

    def test_dates_are_comparable(self):
        stats = ColumnStats.from_values(
            [date(2000, 1, 10), date(2000, 1, 20)]
        )
        assert stats.minimum == date(2000, 1, 10)
        assert stats.may_overlap(
            low=date(2000, 1, 15), high=date(2000, 1, 22)
        )
        assert not stats.may_overlap(low=date(2000, 2, 1))


class TestMayContain:
    def test_exact_with_distinct_set(self):
        stats = ColumnStats.from_values(["US", "BR"])
        assert stats.may_contain("US")
        assert not stats.may_contain("DE")

    def test_range_fallback_without_distinct_set(self):
        stats = ColumnStats.from_values(list(range(100)))
        assert stats.may_contain(50)
        assert not stats.may_contain(500)

    def test_distinct_set_answers_exactly_for_foreign_values(self):
        # With an exact distinct set, a value of a type that can never
        # compare equal is provably absent — pruning is exact, not guessy.
        stats = ColumnStats.from_values([1, 2, 3])
        assert not stats.may_contain(object())

    def test_range_fallback_conservative_for_foreign_values(self):
        stats = ColumnStats.from_values(list(range(100)))  # no distinct set
        assert stats.may_contain(object())


class TestMayOverlap:
    def test_disjoint_below(self):
        stats = ColumnStats.from_values([10, 20])
        assert not stats.may_overlap(low=25)

    def test_disjoint_above(self):
        stats = ColumnStats.from_values([10, 20])
        assert not stats.may_overlap(high=5)

    def test_overlapping_window(self):
        stats = ColumnStats.from_values([10, 20])
        assert stats.may_overlap(low=15, high=30)

    def test_exclusive_bounds(self):
        stats = ColumnStats.from_values([10, 20])
        assert not stats.may_overlap(low=20, low_inclusive=False)
        assert stats.may_overlap(low=20, low_inclusive=True)
        assert not stats.may_overlap(high=10, high_inclusive=False)

    def test_open_ended(self):
        stats = ColumnStats.from_values([10, 20])
        assert stats.may_overlap()

    def test_mixed_types_conservative(self):
        stats = ColumnStats.from_values([10, 20])
        assert stats.may_overlap(low="not-a-number")


class TestMerge:
    def test_ranges_merge(self):
        left = ColumnStats.from_values([1, 5])
        right = ColumnStats.from_values([10, 20])
        merged = left.merge(right)
        assert merged.minimum == 1
        assert merged.maximum == 20
        assert merged.row_count == 4

    def test_distinct_union_or_drop(self):
        left = ColumnStats.from_values(["a"])
        right = ColumnStats.from_values(["b"])
        assert left.merge(right).distinct_values == {"a", "b"}
        big = ColumnStats.from_values(list(range(DISTINCT_LIMIT)))
        assert big.merge(ColumnStats.from_values([999])).distinct_values is None


class TestPartitionStats:
    def test_column_lookup_case_insensitive(self):
        stats = PartitionStats(
            {
                "Day": ColumnStats.from_values([1, 2]),
                "Country": ColumnStats.from_values(["US", "BR"]),
            }
        )
        assert stats.column("day").maximum == 2
        assert stats.column("COUNTRY").may_contain("US")
        assert stats.column("missing") is None
        assert "day" in stats

    def test_merge_partitions(self):
        left = PartitionStats({"x": ColumnStats.from_values([1, 2])})
        right = PartitionStats({"x": ColumnStats.from_values([5, 9])})
        merged = left.merge(right)
        assert merged.column("x").maximum == 9
