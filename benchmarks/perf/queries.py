"""Frozen query texts, independent of ``repro.workloads``.

Shapes follow the paper: the §6.3.1 aggregation micro-benchmarks over
lineitem (1, 7, ~2500 and ~rows/4 groups), TPC-H Q1/Q3/Q6, and the four
Pavlo queries of §6.2.  Each text runs unchanged on the engine; the
sqlite3 oracle runs ``oracle.to_sqlite(text)``.
"""

AGG_1 = "SELECT COUNT(*) FROM lineitem"
AGG_7 = "SELECT L_SHIPMODE, COUNT(*) FROM lineitem GROUP BY L_SHIPMODE"
AGG_2500 = (
    "SELECT L_RECEIPTDATE, COUNT(*) FROM lineitem GROUP BY L_RECEIPTDATE"
)
AGG_MAX = "SELECT L_ORDERKEY, COUNT(*) FROM lineitem GROUP BY L_ORDERKEY"

Q1 = """
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

Q3 = """
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

Q6 = """
SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS revenue
FROM lineitem
WHERE L_SHIPDATE >= DATE '1994-01-01'
  AND L_SHIPDATE < DATE '1995-01-01'
  AND L_DISCOUNT BETWEEN 0.01 AND 0.06
  AND L_QUANTITY < 24
"""

PAVLO_SELECTION = "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 90"
PAVLO_AGG_FULL = (
    "SELECT sourceIP, SUM(adRevenue) FROM uservisits GROUP BY sourceIP"
)
PAVLO_AGG_SUBSTR = (
    "SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) "
    "FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)"
)
PAVLO_JOIN = """
SELECT sourceIP, AVG(pageRank), SUM(adRevenue) AS totalRevenue
FROM rankings AS R, uservisits AS UV
WHERE R.pageURL = UV.destURL
  AND UV.visitDate BETWEEN DATE '2000-01-15' AND DATE '2000-01-22'
GROUP BY UV.sourceIP
"""

#: A large sort: about half of lineitem, ordered on a near-unique key.
ORDER_BY = (
    "SELECT L_ORDERKEY, L_EXTENDEDPRICE, L_SHIPDATE FROM lineitem "
    "WHERE L_QUANTITY < 25 ORDER BY L_EXTENDEDPRICE DESC"
)

SCAN_AGG = (
    ("agg_1", AGG_1),
    ("agg_7", AGG_7),
    ("agg_2500", AGG_2500),
    ("q1", Q1),
    ("q6", Q6),
    ("pavlo_selection", PAVLO_SELECTION),
    ("pavlo_agg_substr", PAVLO_AGG_SUBSTR),
)

SHUFFLE_JOIN = (
    ("agg_max", AGG_MAX),
    ("q3", Q3),
    ("pavlo_agg_full", PAVLO_AGG_FULL),
    ("pavlo_join", PAVLO_JOIN),
    ("order_by", ORDER_BY),
)

CAPPED_SPILL = SHUFFLE_JOIN + (("q1", Q1),)

#: ``serving_mix`` templates over ``readings``; ``{a}``/``{a2}`` are days,
#: ``{b}`` a value threshold, ``{c}`` a sensor, ``{d}`` a bucket number.
SERVING_TEMPLATES = (
    "SELECT bucket, COUNT(*) AS n, SUM(value) AS total FROM readings "
    "WHERE day = {a} GROUP BY bucket",
    "SELECT day, COUNT(*) AS n FROM readings WHERE value > {b} GROUP BY day",
    "SELECT COUNT(*) FROM readings WHERE sensor = {c}",
    "SELECT day, SUM(value) AS total FROM readings "
    "WHERE bucket = 'b{d}' GROUP BY day",
    "SELECT sensor, value FROM readings WHERE sensor = {c} AND day = {a}",
    "SELECT bucket, MAX(value), MIN(value) FROM readings "
    "WHERE day BETWEEN {a} AND {a2} GROUP BY bucket",
)


def serving_statement(template: int, literal: int) -> str:
    """One parameterised statement; ``literal`` is a Zipf rank, so low
    ranks (popular literals) repeat and hit the result cache."""
    day = literal % 30
    return SERVING_TEMPLATES[template].format(
        a=day,
        a2=min(day + 3, 29),
        b=(literal * 7) % 100,
        c=literal,
        d=literal % 12,
    )
