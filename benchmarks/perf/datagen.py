"""Benchmark-owned inputs: seeded numpy generators for every table.

Independent of ``repro.workloads`` on purpose: ROADMAP plans to rewrite
dbgen-lite, and that must not silently change the benchmark's data.  The
program under test receives only the rows built here; ``--seed`` selects
them.  Cardinalities follow the paper's workloads (TPC-H: 7 ship modes,
~2500 receipt dates, ~4 lines per order; Pavlo: Zipfian page popularity,
~8x fewer /16-style prefixes than source IPs).

This module imports nothing from the program, so the harness tests can
run it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

INT, DOUBLE, STRING, DATE = "int", "double", "string", "date"

LINEITEM_COLUMNS = (
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
ORDERS_COLUMNS = (
    ("O_ORDERKEY", INT),
    ("O_CUSTKEY", INT),
    ("O_ORDERSTATUS", STRING),
    ("O_TOTALPRICE", DOUBLE),
    ("O_ORDERDATE", DATE),
    ("O_ORDERPRIORITY", STRING),
)
CUSTOMER_COLUMNS = (
    ("C_CUSTKEY", INT),
    ("C_NAME", STRING),
    ("C_NATIONKEY", INT),
    ("C_ACCTBAL", DOUBLE),
    ("C_MKTSEGMENT", STRING),
)
RANKINGS_COLUMNS = (
    ("pageURL", STRING),
    ("pageRank", INT),
    ("avgDuration", INT),
)
USERVISITS_COLUMNS = (
    ("sourceIP", STRING),
    ("destURL", STRING),
    ("visitDate", DATE),
    ("adRevenue", DOUBLE),
    ("userAgent", STRING),
    ("countryCode", STRING),
    ("languageCode", STRING),
    ("searchWord", STRING),
    ("duration", INT),
)
READINGS_COLUMNS = (
    ("sensor", INT),
    ("bucket", STRING),
    ("day", INT),
    ("value", DOUBLE),
)

_SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_COUNTRIES = ["USA", "DEU", "BRA", "IND", "CHN", "GBR", "JPN", "FRA"]
_LANGUAGES = ["en", "de", "pt", "hi", "zh", "ja", "fr"]
_AGENTS = ["Mozilla/5.0", "Chrome/20", "Safari/5", "Opera/12"]
_WORDS = ["cat", "dog", "news", "shark", "spark", "hive", "sale", "score"]

_TPCH_BASE_DATE = date(1992, 1, 1)
_TPCH_DATE_SPAN = 2500
_PAVLO_BASE_DATE = date(2000, 1, 1)
_PAVLO_DATE_SPAN = 90

#: One stream per table, so changing one table's size leaves the others'
#: rows untouched for a given seed.
_STREAMS = {
    "lineitem": 1,
    "orders": 2,
    "customer": 3,
    "rankings": 4,
    "uservisits": 5,
    "readings": 6,
}


@dataclass
class Table:
    """Generated rows plus the column (name, type) pairs they follow."""

    name: str
    columns: tuple
    rows: list


def _rng(seed: int, table: str, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[table], part])


def _pick(rng: np.random.Generator, values: list, count: int) -> list:
    lut = np.array(values, dtype=object)
    return lut[rng.integers(0, len(values), count)].tolist()


def _dates(base: date, offsets: np.ndarray, span: int) -> list:
    lut = np.array(
        [base + timedelta(days=d) for d in range(span)], dtype=object
    )
    return lut[offsets].tolist()


def _money(rng: np.random.Generator, low: float, high: float, count: int):
    return np.round(rng.uniform(low, high, count), 2).tolist()


def lineitem(seed: int, num_rows: int) -> Table:
    rng = _rng(seed, "lineitem")
    num_orders = max(num_rows // 4, 1)
    ship = rng.integers(0, _TPCH_DATE_SPAN, num_rows)
    receipt = ship + rng.integers(1, 31, num_rows)
    discounts = np.array([0.0, 0.01, 0.02, 0.05, 0.1])
    taxes = np.array([0.0, 0.02, 0.04, 0.08])
    columns = [
        rng.integers(1, num_orders + 1, num_rows).tolist(),
        rng.integers(1, max(num_rows // 3, 1) + 1, num_rows).tolist(),
        rng.integers(1, max(num_rows // 600, 1) + 1, num_rows).tolist(),
        (np.arange(num_rows) % 7 + 1).tolist(),
        rng.integers(1, 51, num_rows).astype(float).tolist(),
        _money(rng, 900.0, 100000.0, num_rows),
        discounts[rng.integers(0, len(discounts), num_rows)].tolist(),
        taxes[rng.integers(0, len(taxes), num_rows)].tolist(),
        _pick(rng, ["A", "N", "R"], num_rows),
        _pick(rng, ["O", "F"], num_rows),
        _dates(_TPCH_BASE_DATE, ship, _TPCH_DATE_SPAN + 31),
        _dates(_TPCH_BASE_DATE, receipt, _TPCH_DATE_SPAN + 31),
        _pick(rng, _SHIP_MODES, num_rows),
    ]
    return Table("lineitem", LINEITEM_COLUMNS, list(zip(*columns)))


def orders(seed: int, num_rows: int) -> Table:
    rng = _rng(seed, "orders")
    columns = [
        list(range(1, num_rows + 1)),
        rng.integers(1, max(num_rows // 10, 1) + 1, num_rows).tolist(),
        _pick(rng, ["O", "F", "P"], num_rows),
        _money(rng, 1000.0, 500000.0, num_rows),
        _dates(
            _TPCH_BASE_DATE,
            rng.integers(0, _TPCH_DATE_SPAN, num_rows),
            _TPCH_DATE_SPAN,
        ),
        _pick(rng, _PRIORITIES, num_rows),
    ]
    return Table("orders", ORDERS_COLUMNS, list(zip(*columns)))


def customer(seed: int, num_rows: int) -> Table:
    rng = _rng(seed, "customer")
    columns = [
        list(range(1, num_rows + 1)),
        [f"Customer#{key:09d}" for key in range(1, num_rows + 1)],
        rng.integers(0, 25, num_rows).tolist(),
        _money(rng, -999.99, 9999.99, num_rows),
        _pick(rng, _SEGMENTS, num_rows),
    ]
    return Table("customer", CUSTOMER_COLUMNS, list(zip(*columns)))


def rankings(seed: int, num_rows: int) -> Table:
    rng = _rng(seed, "rankings")
    columns = [
        [f"url{page}" for page in range(num_rows)],
        rng.integers(0, 101, num_rows).tolist(),
        rng.integers(1, 61, num_rows).tolist(),
    ]
    return Table("rankings", RANKINGS_COLUMNS, list(zip(*columns)))


def uservisits(
    seed: int,
    num_rows: int,
    num_pages: int,
    num_ips: int,
    zipf_alpha: float = 1.2,
) -> Table:
    rng = _rng(seed, "uservisits")
    weights = 1.0 / np.arange(1, num_pages + 1) ** zipf_alpha
    pages = rng.choice(num_pages, size=num_rows, p=weights / weights.sum())
    num_prefixes = max(num_ips // 8, 1)
    prefix_parts = rng.integers([10, 10, 1], [100, 100, 10], (num_prefixes, 3))
    prefixes = [f"{a}.{b}.{c}" for a, b, c in prefix_parts.tolist()]
    ip_pool = [
        f"{prefixes[p]}.{host}"
        for p, host in zip(
            rng.integers(0, num_prefixes, num_ips).tolist(),
            rng.integers(1, 255, num_ips).tolist(),
        )
    ]
    urls = np.array([f"url{page}" for page in range(num_pages)], dtype=object)
    columns = [
        _pick(rng, ip_pool, num_rows),
        urls[pages].tolist(),
        _dates(
            _PAVLO_BASE_DATE,
            rng.integers(0, _PAVLO_DATE_SPAN, num_rows),
            _PAVLO_DATE_SPAN,
        ),
        np.round(rng.uniform(0.01, 10.0, num_rows), 4).tolist(),
        _pick(rng, _AGENTS, num_rows),
        _pick(rng, _COUNTRIES, num_rows),
        _pick(rng, _LANGUAGES, num_rows),
        _pick(rng, _WORDS, num_rows),
        rng.integers(1, 601, num_rows).tolist(),
    ]
    return Table("uservisits", USERVISITS_COLUMNS, list(zip(*columns)))


def readings(seed: int, num_rows: int, part: int = 0) -> Table:
    """Sensor readings for ``serving_mix``; ``part`` > 0 draws the rows
    of the part-th append from their own stream."""
    rng = _rng(seed, "readings", part)
    columns = [
        rng.integers(0, 200, num_rows).tolist(),
        [f"b{b}" for b in rng.integers(0, 12, num_rows).tolist()],
        rng.integers(0, 30, num_rows).tolist(),
        np.round(rng.uniform(0.0, 100.0, num_rows), 1).tolist(),
    ]
    return Table("readings", READINGS_COLUMNS, list(zip(*columns)))


def zipf_indices(
    rng: np.random.Generator, count: int, size: int, alpha: float
) -> list:
    """``size`` draws from range(count), P(i) proportional to 1/(i+1)^alpha."""
    weights = 1.0 / np.arange(1, count + 1) ** alpha
    return rng.choice(count, size=size, p=weights / weights.sum()).tolist()


def text_bytes(rows: list) -> int:
    """Bytes of ``rows`` in the benchmark's own text encoding — one line
    per row, ``|`` between fields, dates as ISO text: the denominator of
    ``stored_bytes_per_user_byte``."""
    return sum(len("|".join(map(str, row)).encode("utf-8")) + 1 for row in rows)
