"""dbgen-lite: TPC-H tables with correct cardinality ratios (Section 6.3).

The paper generates 100 GB and 1 TB datasets with DBGEN and uses lineitem
and supplier for its micro-benchmarks.  What matters for reproducing the
experiments is the *group cardinalities* of the aggregation columns —
L_SHIPMODE has 7 values, L_RECEIPTDATE ~2500 distinct days, L_ORDERKEY is
~1 group per 4 rows — and the lineitem:supplier size ratio (600:1 at any
scale factor), which drives the PDE join experiment.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from repro.datatypes import DATE, DOUBLE, INT, STRING, Schema
from repro.workloads.base import GB, TB, Dataset

LINEITEM_SCHEMA = Schema.of(
    ("L_ORDERKEY", INT),
    ("L_PARTKEY", INT),
    ("L_SUPPKEY", INT),
    ("L_LINENUMBER", INT),
    ("L_QUANTITY", DOUBLE),
    ("L_EXTENDEDPRICE", DOUBLE),
    ("L_DISCOUNT", DOUBLE),
    ("L_TAX", DOUBLE),
    ("L_RETURNFLAG", STRING),
    ("L_LINESTATUS", STRING),
    ("L_SHIPDATE", DATE),
    ("L_RECEIPTDATE", DATE),
    ("L_SHIPMODE", STRING),
)

SUPPLIER_SCHEMA = Schema.of(
    ("S_SUPPKEY", INT),
    ("S_NAME", STRING),
    ("S_ADDRESS", STRING),
    ("S_NATIONKEY", INT),
    ("S_PHONE", STRING),
    ("S_ACCTBAL", DOUBLE),
)

ORDERS_SCHEMA = Schema.of(
    ("O_ORDERKEY", INT),
    ("O_CUSTKEY", INT),
    ("O_ORDERSTATUS", STRING),
    ("O_TOTALPRICE", DOUBLE),
    ("O_ORDERDATE", DATE),
    ("O_ORDERPRIORITY", STRING),
)

CUSTOMER_SCHEMA = Schema.of(
    ("C_CUSTKEY", INT),
    ("C_NAME", STRING),
    ("C_NATIONKEY", INT),
    ("C_ACCTBAL", DOUBLE),
    ("C_MKTSEGMENT", STRING),
)

SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_RETURN_FLAGS = ["A", "N", "R"]
_LINE_STATUS = ["O", "F"]
_ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]

#: Paper-scale representations: the 100 GB dataset has a 600M-row
#: lineitem; the 1 TB dataset 6B rows (Section 6.3.1).
SCALE_100GB = (100 * GB, 600_000_000)
SCALE_1TB = (1 * TB, 6_000_000_000)

#: TPC-H ratios per scale factor 1: 6M lineitem rows to 10K suppliers.
LINEITEM_TO_SUPPLIER_RATIO = 600

_BASE_DATE = date(1992, 1, 1)
#: ~2500 distinct receipt dates, matching the paper's group count.
_DATE_SPAN_DAYS = 2500


def generate_lineitem(
    num_rows: int = 12000,
    represented: tuple[int, int] = SCALE_100GB,
    seed: int = 23,
) -> Dataset:
    """lineitem with ~4 lines per order and paper-matching cardinalities."""
    rng = random.Random(seed)
    num_orders = max(num_rows // 4, 1)
    num_suppliers = max(num_rows // LINEITEM_TO_SUPPLIER_RATIO, 1)
    rows = []
    for i in range(num_rows):
        order_key = rng.randint(1, num_orders)
        ship_offset = rng.randint(0, _DATE_SPAN_DAYS - 1)
        rows.append(
            (
                order_key,
                rng.randint(1, max(num_rows // 3, 1)),
                rng.randint(1, num_suppliers),
                i % 7 + 1,
                float(rng.randint(1, 50)),
                round(rng.uniform(900.0, 100000.0), 2),
                round(rng.choice([0.0, 0.01, 0.02, 0.05, 0.1]), 2),
                round(rng.choice([0.0, 0.02, 0.04, 0.08]), 2),
                rng.choice(_RETURN_FLAGS),
                rng.choice(_LINE_STATUS),
                _BASE_DATE + timedelta(days=ship_offset),
                _BASE_DATE + timedelta(days=ship_offset + rng.randint(1, 30)),
                rng.choice(SHIP_MODES),
            )
        )
    represented_bytes, represented_rows = represented
    return Dataset(
        name="lineitem",
        schema=LINEITEM_SCHEMA,
        rows=rows,
        represented_bytes=represented_bytes,
        represented_rows=represented_rows,
    )


def generate_supplier(
    num_rows: int = 200,
    represented_rows: int = 10_000_000,
    seed: int = 29,
) -> Dataset:
    """supplier; the paper's UDF selects 1000 of 10M suppliers — the same
    1/10000 selectivity is reproducible with
    ``S_ADDRESS LIKE`` predicates or a registered UDF over addresses."""
    rng = random.Random(seed)
    rows = []
    for key in range(1, num_rows + 1):
        rows.append(
            (
                key,
                f"Supplier#{key:09d}",
                f"{rng.randint(1, 999)} Warehouse Way Unit {key}",
                rng.randint(0, 24),
                f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-"
                f"{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
                round(rng.uniform(-999.99, 9999.99), 2),
            )
        )
    return Dataset(
        name="supplier",
        schema=SUPPLIER_SCHEMA,
        rows=rows,
        represented_bytes=represented_rows * 160,
        represented_rows=represented_rows,
    )


def generate_orders(
    num_rows: int = 3000,
    represented_rows: int = 150_000_000,
    seed: int = 31,
) -> Dataset:
    rng = random.Random(seed)
    rows = []
    for key in range(1, num_rows + 1):
        rows.append(
            (
                key,
                rng.randint(1, max(num_rows // 10, 1)),
                rng.choice(["O", "F", "P"]),
                round(rng.uniform(1000.0, 500000.0), 2),
                _BASE_DATE + timedelta(days=rng.randint(0, _DATE_SPAN_DAYS - 1)),
                rng.choice(_ORDER_PRIORITIES),
            )
        )
    return Dataset(
        name="orders",
        schema=ORDERS_SCHEMA,
        rows=rows,
        represented_bytes=represented_rows * 120,
        represented_rows=represented_rows,
    )


def generate_customer(
    num_rows: int = 1500,
    represented_rows: int = 15_000_000,
    seed: int = 37,
) -> Dataset:
    rng = random.Random(seed)
    rows = []
    for key in range(1, num_rows + 1):
        rows.append(
            (
                key,
                f"Customer#{key:09d}",
                rng.randint(0, 24),
                round(rng.uniform(-999.99, 9999.99), 2),
                rng.choice(_SEGMENTS),
            )
        )
    return Dataset(
        name="customer",
        schema=CUSTOMER_SCHEMA,
        rows=rows,
        represented_bytes=represented_rows * 100,
        represented_rows=represented_rows,
    )


#: The aggregation micro-benchmark queries (Section 6.3.1): group counts
#: of 1 (no group-by), 7, ~2500 and ~num_rows/4.
AGGREGATION_QUERIES = {
    1: "SELECT COUNT(*) FROM lineitem",
    7: "SELECT L_SHIPMODE, COUNT(*) FROM lineitem GROUP BY L_SHIPMODE",
    2500: (
        "SELECT L_RECEIPTDATE, COUNT(*) FROM lineitem "
        "GROUP BY L_RECEIPTDATE"
    ),
    "max": "SELECT L_ORDERKEY, COUNT(*) FROM lineitem GROUP BY L_ORDERKEY",
}

#: Classic TPC-H query texts over the generated tables (the same Q1/Q3/
#: Q6 shapes tests/sql/test_tpch_queries.py checks against references);
#: the benchmark's scan_agg and shuffle_join workloads run the same texts.
TPCH_QUERIES = {
    "Q1": """
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
    """,
    "Q3": """
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
    """,
    "Q6": """
        SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS revenue
        FROM lineitem
        WHERE L_SHIPDATE >= DATE '1994-01-01'
          AND L_SHIPDATE < DATE '1995-01-01'
          AND L_DISCOUNT BETWEEN 0.01 AND 0.06
          AND L_QUANTITY < 24
    """,
}

#: The PDE join experiment's query (Section 6.3.2).
PDE_JOIN_QUERY = """
SELECT * FROM lineitem l JOIN supplier s
ON l.L_SUPPKEY = s.S_SUPPKEY
WHERE SOME_UDF(s.S_ADDRESS)
"""
