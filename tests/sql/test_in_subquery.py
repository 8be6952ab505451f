"""Uncorrelated IN (SELECT ...) subqueries: broadcast semi-joins."""

import pytest

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def shark():
    shark = SharkContext(num_workers=3)
    shark.create_table(
        "orders",
        Schema.of(("oid", INT), ("cust", INT), ("total", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "orders",
        [(i, i % 7, float(i * 3 % 100)) for i in range(200)],
    )
    shark.create_table(
        "vip", Schema.of(("cust", INT), ("tier", STRING)), cached=True
    )
    shark.load_rows("vip", [(1, "gold"), (3, "gold"), (5, "silver")])
    return shark


class TestSemantics:
    def test_in_filters_to_matching_keys(self, shark):
        result = shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE cust IN (SELECT cust FROM vip)"
        )
        want = sum(1 for i in range(200) if i % 7 in (1, 3, 5))
        assert result.scalar() == want

    def test_not_in(self, shark):
        result = shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE cust NOT IN (SELECT cust FROM vip)"
        )
        want = sum(1 for i in range(200) if i % 7 not in (1, 3, 5))
        assert result.scalar() == want

    def test_subquery_with_own_filter(self, shark):
        result = shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE cust IN (SELECT cust FROM vip WHERE tier = 'gold')"
        )
        want = sum(1 for i in range(200) if i % 7 in (1, 3))
        assert result.scalar() == want

    def test_empty_subquery(self, shark):
        assert shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE cust IN (SELECT cust FROM vip WHERE tier = 'platinum')"
        ).scalar() == 0
        # NOT IN over the empty set keeps everything.
        assert shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE cust NOT IN (SELECT cust FROM vip WHERE tier = 'x')"
        ).scalar() == 200

    def test_not_in_with_null_in_subquery_matches_nothing(self, shark):
        shark.sql(
            "CREATE TABLE nullable (k INT) "
            "TBLPROPERTIES ('shark.cache'='true')"
        )
        shark.sql("INSERT INTO nullable VALUES (1), (NULL)")
        assert shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE cust NOT IN (SELECT k FROM nullable)"
        ).scalar() == 0

    def test_combined_with_other_predicates(self, shark):
        result = shark.sql(
            "SELECT COUNT(*) FROM orders "
            "WHERE total > 50 AND cust IN (SELECT cust FROM vip)"
        )
        want = sum(
            1
            for i in range(200)
            if i * 3 % 100 > 50 and i % 7 in (1, 3, 5)
        )
        assert result.scalar() == want

    def test_aggregating_subquery(self, shark):
        result = shark.sql(
            "SELECT COUNT(*) FROM orders WHERE cust IN "
            "(SELECT cust FROM orders GROUP BY cust HAVING COUNT(*) > 28)"
        )
        # Each of the 7 cust groups has 28 or 29 members; only those with
        # 29 qualify (200 = 7*28 + 4 -> cust 0..3 have 29).
        want = sum(1 for i in range(200) if i % 7 in (0, 1, 2, 3))
        assert result.scalar() == want


class TestRestrictions:
    def test_nested_in_expression_rejected(self, shark):
        # HAVING binds through the same switch as WHERE: same message.
        for query in (
            "SELECT COUNT(*) FROM orders "
            "WHERE NOT (cust IN (SELECT cust FROM vip))",
            "SELECT cust, COUNT(*) FROM orders GROUP BY cust "
            "HAVING cust IN (SELECT cust FROM vip)",
        ):
            with pytest.raises(
                AnalysisError,
                match=r"^IN \(SELECT \.\.\.\) is only supported as a "
                r"top-level WHERE conjunct$",
            ):
                shark.sql(query)

    def test_multi_column_subquery_rejected(self, shark):
        with pytest.raises(AnalysisError, match="one column"):
            shark.sql(
                "SELECT COUNT(*) FROM orders "
                "WHERE cust IN (SELECT cust, tier FROM vip)"
            )

    def test_in_subquery_in_select_list_rejected(self, shark):
        with pytest.raises(AnalysisError, match="top-level"):
            shark.sql(
                "SELECT cust IN (SELECT cust FROM vip) FROM orders"
            )


class TestIntegration:
    def test_matches_hive_baseline(self, shark):
        hive = HiveExecutor(shark.session)
        query = (
            "SELECT cust, COUNT(*) FROM orders "
            "WHERE cust IN (SELECT cust FROM vip) GROUP BY cust"
        )
        assert sorted(shark.sql(query).rows) == sorted(
            hive.execute(query).rows
        )

    def test_survives_worker_failure(self, shark):
        query = (
            "SELECT COUNT(*) FROM orders "
            "WHERE cust IN (SELECT cust FROM vip)"
        )
        expected = shark.sql(query).scalar()
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=1, after_tasks=base + 2)
        assert shark.sql(query).scalar() == expected

    def test_explain_shows_semi_join(self, shark):
        text = shark.explain(
            "SELECT oid FROM orders WHERE cust IN (SELECT cust FROM vip)"
        )
        assert "SemiJoinFilter" in text
