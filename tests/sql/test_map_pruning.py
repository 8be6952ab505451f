"""Map pruning: partitions skipped by statistics (paper Section 3.5)."""

from dataclasses import replace
from datetime import date, datetime, timedelta

import pytest

from repro import SharkContext
from repro.columnar.stats import ColumnStats, PartitionStats
from repro.datatypes import DATE, INT, STRING, TIMESTAMP, Schema
from repro.workloads import warehouse

from tests.oracle import sqlite_rows


@pytest.fixture
def clustered():
    """A logs table loaded with one partition per day (natural clustering)."""
    shark = SharkContext(num_workers=4)
    shark.create_table(
        "logs", Schema.of(("day", INT), ("country", STRING), ("hits", INT)),
        cached=True,
    )
    rows = [
        (day, ["US", "BR", "DE"][day % 3], day * 100 + i)
        for day in range(20)
        for i in range(30)
    ]
    shark.load_rows("logs", rows, num_partitions=20)
    return shark, rows


class TestPruningDecisions:
    def test_equality_prunes_to_one_partition(self, clustered):
        shark, rows = clustered
        result = shark.sql("SELECT COUNT(*) FROM logs WHERE day = 7")
        assert result.scalar() == 30
        assert result.report.scanned_partitions == 1
        assert result.report.pruned_partitions == 19

    def test_range_prunes_partial(self, clustered):
        shark, rows = clustered
        result = shark.sql(
            "SELECT COUNT(*) FROM logs WHERE day >= 5 AND day < 10"
        )
        assert result.scalar() == 150
        assert result.report.scanned_partitions == 5

    def test_between_prunes(self, clustered):
        shark, rows = clustered
        result = shark.sql(
            "SELECT COUNT(*) FROM logs WHERE day BETWEEN 3 AND 4"
        )
        assert result.scalar() == 60
        assert result.report.scanned_partitions == 2

    def test_in_list_prunes_by_distinct_values(self, clustered):
        shark, rows = clustered
        result = shark.sql(
            "SELECT COUNT(*) FROM logs WHERE day IN (1, 15)"
        )
        assert result.scalar() == 60
        assert result.report.scanned_partitions == 2

    def test_enum_column_pruning(self, clustered):
        shark, rows = clustered
        result = shark.sql(
            "SELECT COUNT(*) FROM logs WHERE country = 'US'"
        )
        want = sum(1 for r in rows if r[1] == "US")
        assert result.scalar() == want
        # Only the US-bearing day-partitions scanned (one per 3 days).
        assert result.report.scanned_partitions <= 7

    def test_impossible_predicate_prunes_everything(self, clustered):
        shark, rows = clustered
        result = shark.sql("SELECT COUNT(*) FROM logs WHERE day = 999")
        assert result.scalar() == 0
        assert result.report.scanned_partitions == 0

    def test_flipped_comparison_prunes(self, clustered):
        shark, rows = clustered
        result = shark.sql("SELECT COUNT(*) FROM logs WHERE 18 <= day")
        assert result.scalar() == 60
        assert result.report.scanned_partitions == 2

    def test_unprunable_predicate_scans_all(self, clustered):
        shark, rows = clustered
        result = shark.sql(
            "SELECT COUNT(*) FROM logs WHERE hits % 2 = 0"
        )
        assert result.report.pruned_partitions == 0


class TestPruningSafety:
    def test_disabled_pruning_matches_enabled(self, clustered):
        shark, rows = clustered
        query = "SELECT SUM(hits) FROM logs WHERE day BETWEEN 2 AND 9"
        with_pruning = shark.sql(query).scalar()
        shark.session.config = replace(
            shark.session.config, enable_map_pruning=False
        )
        without = shark.sql(query).scalar()
        assert with_pruning == without

    def test_or_predicates_never_mispruned(self, clustered):
        shark, rows = clustered
        # OR is not a conjunct; pruning must stay conservative.
        result = shark.sql(
            "SELECT COUNT(*) FROM logs WHERE day = 1 OR day = 19"
        )
        assert result.scalar() == 60

    def test_projection_with_pruning(self, clustered):
        shark, rows = clustered
        result = shark.sql(
            "SELECT country, COUNT(*) FROM logs WHERE day = 6 "
            "GROUP BY country"
        )
        assert dict(result.rows) == {"US": 30}


class TestDatePruning:
    """DATE / TIMESTAMP blocks are datetime64 arrays; their statistics
    hold ``date`` / ``datetime`` bounds, so a literal prunes the same
    blocks the INT ``day`` column does."""

    DAY0 = date(1969, 12, 25)  # blocks on both sides of the epoch

    @pytest.fixture
    def dated(self):
        shark = SharkContext(num_workers=4)
        shark.create_table(
            "logs",
            Schema.of(("day", DATE), ("at", TIMESTAMP), ("hits", INT)),
            cached=True,
        )
        rows = [
            (
                self.DAY0 + timedelta(days=day),
                datetime(2013, 3, 10) + timedelta(days=day, minutes=i),
                day * 100 + i,
            )
            for day in range(20)
            for i in range(30)
        ]
        shark.load_rows("logs", rows, num_partitions=20)
        return shark

    def test_stats_hold_python_bounds(self, dated):
        entry = dated.session.catalog.get("logs")
        stats = entry.partition_stats[7]
        day, at = stats.column("day"), stats.column("at")
        assert day.minimum == day.maximum == self.DAY0 + timedelta(days=7)
        assert type(day.minimum) is date and day.distinct_values == {
            day.minimum
        }
        assert type(at.minimum) is type(at.maximum) is datetime
        assert (at.minimum, at.maximum) == (
            datetime(2013, 3, 17), datetime(2013, 3, 17, 0, 29)
        )

    @pytest.mark.parametrize(
        "condition,count,scanned",
        [
            ("day = DATE '1970-01-01'", 30, 1),
            ("day >= DATE '1969-12-30' AND day < DATE '1970-01-04'", 150, 5),
            ("day BETWEEN DATE '1969-12-28' AND DATE '1969-12-29'", 60, 2),
            ("day IN (DATE '1969-12-26', DATE '1970-01-09')", 60, 2),
            ("DATE '1970-01-10' < day", 90, 3),
            ("day > DATE '1970-01-13'", 0, 0),
            ("at >= TIMESTAMP '2013-03-28 00:10:00'", 50, 2),
            ("at BETWEEN TIMESTAMP '2013-03-12 00:00:00' "
             "AND TIMESTAMP '2013-03-13 23:00:00'", 60, 2),
        ],
    )
    def test_date_ranges_prune(self, dated, condition, count, scanned):
        result = dated.sql(f"SELECT COUNT(*) FROM logs WHERE {condition}")
        assert result.scalar() == count
        assert result.report.scanned_partitions == scanned
        assert result.report.pruned_partitions == 20 - scanned


class TestPruningOverMergedBlocks:
    """Trickle appends merge into one tail block whose statistics are
    recomputed over the merged rows: it is pruned by those, and the bulk
    blocks before it by theirs, as before."""

    def test_merged_tail_is_pruned_by_its_recomputed_stats(self, clustered):
        shark, rows = clustered
        for day in (20, 21):  # two one-block loads, merged into one
            shark.load_rows(
                "logs",
                [(day, "US", day * 100 + i) for i in range(30)],
                num_partitions=1,
            )
        entry = shark.session.catalog.get("logs")
        assert len(entry.partition_stats) == 21
        tail = entry.partition_stats[-1].column("day")
        assert (tail.minimum, tail.maximum, tail.row_count) == (20, 21, 60)
        assert tail.distinct_values == {20, 21}
        for condition, count, scanned in (
            ("day = 7", 30, 1),
            ("day = 20", 30, 1),
            ("day = 21", 30, 1),
            ("day BETWEEN 19 AND 20", 60, 2),
            ("day > 21", 0, 0),
        ):
            result = shark.sql(f"SELECT COUNT(*) FROM logs WHERE {condition}")
            assert result.scalar() == count, condition
            assert result.report.scanned_partitions == scanned, condition
            assert result.report.pruned_partitions == 21 - scanned, condition


class TestMissingOrStaleStats:
    """Pruning must stay conservative when statistics are absent or
    stale: a partition whose stats cannot vouch for its contents is
    always scanned, never skipped."""

    def test_partition_with_no_stats_never_pruned(self, clustered):
        shark, rows = clustered
        entry = shark.session.catalog.get("logs")
        # As if the loading task died before publishing partition 7's
        # statistics: no per-column entries at all.
        entry.partition_stats[7] = PartitionStats({})
        result = shark.sql("SELECT COUNT(*) FROM logs WHERE day = 5")
        assert result.scalar() == 30
        # day-5 partition kept by its stats, partition 7 kept because
        # nothing vouches for it; the other 18 pruned.
        assert result.report.scanned_partitions == 2
        assert result.report.pruned_partitions == 18

    def test_partition_missing_one_column_never_pruned(self, clustered):
        shark, rows = clustered
        entry = shark.session.catalog.get("logs")
        # Stats exist but not for the predicate column (schema drift:
        # 'day' added after this partition's stats were collected).
        stale = {
            name: stats
            for name, stats in entry.partition_stats[3]._columns.items()
            if name != "day"
        }
        entry.partition_stats[3] = PartitionStats(stale)
        result = shark.sql("SELECT COUNT(*) FROM logs WHERE day = 5")
        assert result.scalar() == 30
        assert result.report.scanned_partitions == 2

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT COUNT(*) FROM logs WHERE day = 5",
            "SELECT COUNT(*) FROM logs WHERE day > 15",
            "SELECT COUNT(*) FROM logs WHERE day BETWEEN 2 AND 4",
            "SELECT COUNT(*) FROM logs WHERE country IN ('US', 'DE')",
        ],
    )
    def test_stale_empty_stats_never_pruned(self, clustered, query):
        shark, rows = clustered
        entry = shark.session.catalog.get("logs")
        baseline = shark.sql(query).scalar()
        # Stale placeholder stats: entries exist for every column but
        # observed zero rows, while the partition itself holds data.
        for index in range(len(entry.partition_stats)):
            entry.partition_stats[index] = PartitionStats(
                {name: ColumnStats() for name in ("day", "country", "hits")}
            )
        result = shark.sql(query)
        assert result.scalar() == baseline
        assert result.report.pruned_partitions == 0

    def test_stale_stats_same_rows_both_modes(self, clustered):
        """Pruning over stale statistics, and no pruning at all, both
        answer what sqlite does over the rows."""
        shark, rows = clustered
        entry = shark.session.catalog.get("logs")
        entry.partition_stats[0] = PartitionStats({})
        query = "SELECT country, SUM(hits) FROM logs WHERE day < 3 GROUP BY country"
        pruned = shark.sql(query).rows
        shark.session.config = replace(
            shark.session.config, enable_map_pruning=False
        )
        unpruned = shark.sql(query).rows
        assert sorted(pruned) == sorted(unpruned)
        want = sqlite_rows(query, {"logs": (("day", "country", "hits"), rows)})
        assert sorted(pruned) == sorted(want)


class TestWarehousePruning:
    def test_representative_queries_prune(self):
        shark = SharkContext(num_workers=4)
        data = warehouse.generate_sessions(num_days=15, rows_per_day=40)
        shark.create_table("sessions", data.schema, cached=True)
        shark.load_rows("sessions", data.rows, num_partitions=15)
        queries = warehouse.representative_queries(day=6)
        result = shark.sql(queries["q1"])
        assert result.report.pruned_partitions > 0
        q4 = shark.sql(queries["q4"])
        assert q4.report.scanned_partitions == 1
