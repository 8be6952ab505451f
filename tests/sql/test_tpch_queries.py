"""Classic TPC-H queries (Q1, Q3, Q6) against Python references.

These are the canonical analytical shapes Shark's workload targets:
multi-aggregate group-bys with date filters (Q1), a 3-table join with
ordering and limit (Q3), and a selective scan aggregate (Q6).
"""

from collections import defaultdict
from datetime import date

import pytest

from repro import SharkContext
from repro.workloads import tpch


@pytest.fixture(scope="module")
def warehouse():
    shark = SharkContext(num_workers=4)
    lineitem = tpch.generate_lineitem(5000)
    orders = tpch.generate_orders(1250)
    customer = tpch.generate_customer(125)
    for name, data in [
        ("lineitem", lineitem), ("orders", orders), ("customer", customer),
    ]:
        shark.create_table(name, data.schema, cached=True)
        shark.load_rows(name, data.rows)
    return shark, lineitem, orders, customer


class TestQ1PricingSummary:
    QUERY = """
        SELECT L_RETURNFLAG, L_LINESTATUS,
               SUM(L_QUANTITY) AS sum_qty,
               SUM(L_EXTENDEDPRICE) AS sum_base,
               SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS sum_disc,
               AVG(L_QUANTITY) AS avg_qty,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE L_SHIPDATE <= DATE '1998-09-02'
        GROUP BY L_RETURNFLAG, L_LINESTATUS
        ORDER BY L_RETURNFLAG, L_LINESTATUS
    """

    def test_matches_reference(self, warehouse):
        shark, lineitem, __, ___ = warehouse
        result = shark.sql(self.QUERY)
        cutoff = date(1998, 9, 2)
        groups = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
        for row in lineitem.rows:
            if row[10] <= cutoff:
                key = (row[8], row[9])
                bucket = groups[key]
                bucket[0] += row[4]
                bucket[1] += row[5]
                bucket[2] += row[5] * (1 - row[6])
                bucket[3] += 1
        want = [
            (
                flag, status,
                pytest.approx(v[0]), pytest.approx(v[1]),
                pytest.approx(v[2]), pytest.approx(v[0] / v[3]), v[3],
            )
            for (flag, status), v in sorted(groups.items())
        ]
        assert len(result.rows) == len(want)
        for got, expected in zip(result.rows, want):
            assert tuple(got) == tuple(expected)


class TestQ3ShippingPriority:
    QUERY = """
        SELECT o.O_ORDERKEY,
               SUM(l.L_EXTENDEDPRICE * (1 - l.L_DISCOUNT)) AS revenue,
               o.O_ORDERDATE
        FROM customer c
        JOIN orders o ON c.C_CUSTKEY = o.O_CUSTKEY
        JOIN lineitem l ON l.L_ORDERKEY = o.O_ORDERKEY
        WHERE c.C_MKTSEGMENT = 'BUILDING'
          AND o.O_ORDERDATE < DATE '1995-03-15'
        GROUP BY o.O_ORDERKEY, o.O_ORDERDATE
        ORDER BY revenue DESC
        LIMIT 10
    """

    def test_matches_reference(self, warehouse):
        shark, lineitem, orders, customer = warehouse
        result = shark.sql(self.QUERY)
        building = {r[0] for r in customer.rows if r[4] == "BUILDING"}
        qualifying = {
            r[0]: r[4]
            for r in orders.rows
            if r[1] in building and r[4] < date(1995, 3, 15)
        }
        revenue = defaultdict(float)
        for row in lineitem.rows:
            if row[0] in qualifying:
                revenue[row[0]] += row[5] * (1 - row[6])
        want = sorted(
            (
                (okey, rev, qualifying[okey])
                for okey, rev in revenue.items()
            ),
            key=lambda r: -r[1],
        )[:10]
        assert len(result.rows) == len(want)
        for got, expected in zip(result.rows, want):
            assert got[0] == expected[0]
            assert got[1] == pytest.approx(expected[1])
            assert got[2] == expected[2]


class TestQ6ForecastRevenue:
    QUERY = """
        SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS revenue
        FROM lineitem
        WHERE L_SHIPDATE >= DATE '1994-01-01'
          AND L_SHIPDATE < DATE '1995-01-01'
          AND L_DISCOUNT BETWEEN 0.01 AND 0.06
          AND L_QUANTITY < 24
    """

    def test_matches_reference(self, warehouse):
        shark, lineitem, __, ___ = warehouse
        result = shark.sql(self.QUERY)
        want = sum(
            row[5] * row[6]
            for row in lineitem.rows
            if date(1994, 1, 1) <= row[10] < date(1995, 1, 1)
            and 0.01 <= row[6] <= 0.06
            and row[4] < 24
        )
        assert result.scalar() == pytest.approx(want)

    def test_q6_prunes_and_vectorizes(self, warehouse):
        shark, __, ___, ____ = warehouse
        result = shark.sql(self.QUERY)
        modes = dict(result.report.operator_modes)
        # date+discount+quantity conjuncts all run in the vector kernels
        assert modes["filter"] == "vectorized"
