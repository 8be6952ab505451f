"""Multi-table analytical queries (TPC-H-style star joins)."""

from collections import defaultdict

import pytest

from repro import SharkContext
from repro.workloads import tpch


@pytest.fixture(scope="module")
def warehouse():
    shark = SharkContext(num_workers=4)
    lineitem = tpch.generate_lineitem(3000)
    orders = tpch.generate_orders(750)
    customer = tpch.generate_customer(100)
    supplier = tpch.generate_supplier(5)
    for name, dataset in [
        ("lineitem", lineitem), ("orders", orders),
        ("customer", customer), ("supplier", supplier),
    ]:
        shark.create_table(name, dataset.schema, cached=True)
        shark.load_rows(name, dataset.rows)
    return shark, lineitem, orders, customer, supplier


class TestTwoWayJoins:
    def test_lineitem_orders(self, warehouse):
        shark, lineitem, orders, __, ___ = warehouse
        result = shark.sql(
            "SELECT o.O_ORDERPRIORITY, COUNT(*) FROM lineitem l "
            "JOIN orders o ON l.L_ORDERKEY = o.O_ORDERKEY "
            "GROUP BY o.O_ORDERPRIORITY"
        )
        order_priority = {r[0]: r[5] for r in orders.rows}
        ref = defaultdict(int)
        for row in lineitem.rows:
            if row[0] in order_priority:
                ref[order_priority[row[0]]] += 1
        assert dict(result.rows) == dict(ref)

    def test_join_with_order_filter(self, warehouse):
        shark, lineitem, orders, __, ___ = warehouse
        result = shark.sql(
            "SELECT COUNT(*) FROM lineitem l "
            "JOIN orders o ON l.L_ORDERKEY = o.O_ORDERKEY "
            "WHERE o.O_TOTALPRICE > 250000"
        )
        pricey = {r[0] for r in orders.rows if r[3] > 250000}
        want = sum(1 for row in lineitem.rows if row[0] in pricey)
        assert result.scalar() == want


class TestThreeWayJoins:
    def test_lineitem_orders_customer(self, warehouse):
        shark, lineitem, orders, customer, __ = warehouse
        result = shark.sql(
            "SELECT c.C_MKTSEGMENT, SUM(l.L_EXTENDEDPRICE) "
            "FROM lineitem l "
            "JOIN orders o ON l.L_ORDERKEY = o.O_ORDERKEY "
            "JOIN customer c ON o.O_CUSTKEY = c.C_CUSTKEY "
            "GROUP BY c.C_MKTSEGMENT"
        )
        order_to_cust = {r[0]: r[1] for r in orders.rows}
        cust_to_seg = {r[0]: r[4] for r in customer.rows}
        ref = defaultdict(float)
        for row in lineitem.rows:
            cust = order_to_cust.get(row[0])
            segment = cust_to_seg.get(cust)
            if segment is not None:
                ref[segment] += row[5]
        got = {k: round(v, 4) for k, v in result.rows}
        want = {k: round(v, 4) for k, v in ref.items()}
        assert got == want

    def test_three_way_with_per_table_filters(self, warehouse):
        shark, lineitem, orders, customer, __ = warehouse
        result = shark.sql(
            "SELECT COUNT(*) FROM lineitem l "
            "JOIN orders o ON l.L_ORDERKEY = o.O_ORDERKEY "
            "JOIN customer c ON o.O_CUSTKEY = c.C_CUSTKEY "
            "WHERE l.L_QUANTITY > 25 AND o.O_ORDERSTATUS = 'O' "
            "AND c.C_ACCTBAL > 0"
        )
        open_orders = {
            r[0]: r[1] for r in orders.rows if r[2] == "O"
        }
        rich = {r[0] for r in customer.rows if r[3] > 0}
        want = sum(
            1
            for row in lineitem.rows
            if row[4] > 25 and open_orders.get(row[0]) in rich
        )
        assert result.scalar() == want

    def test_mixed_strategies_reported(self, warehouse):
        shark, __, ___, ____, _____ = warehouse
        result = shark.sql(
            "SELECT COUNT(*) FROM lineitem l "
            "JOIN orders o ON l.L_ORDERKEY = o.O_ORDERKEY "
            "JOIN supplier s ON l.L_SUPPKEY = s.S_SUPPKEY"
        )
        # Two join decisions, one per join node.
        assert len(result.report.join_decisions) == 2
        assert result.scalar() > 0


class TestJoinsMatchHiveBaseline:
    def test_three_way_differential(self, warehouse):
        from repro.baselines import HiveExecutor

        shark, __, ___, ____, _____ = warehouse

        hive = HiveExecutor(shark.session)
        query = (
            "SELECT c.C_MKTSEGMENT, COUNT(*) FROM lineitem l "
            "JOIN orders o ON l.L_ORDERKEY = o.O_ORDERKEY "
            "JOIN customer c ON o.O_CUSTKEY = c.C_CUSTKEY "
            "GROUP BY c.C_MKTSEGMENT"
        )
        assert sorted(shark.sql(query).rows) == sorted(
            hive.execute(query).rows
        )
        # Hive runs it as a chain of 3 jobs (join, join, aggregate) with
        # intermediate HDFS materialization.
        run = hive.execute(query)
        assert run.num_jobs == 3
        assert run.materialized_bytes > 0
