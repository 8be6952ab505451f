"""The column-at-a-time load path against a literal per-value reference.

The reference below states the load path value by value: the statistics
as one ``observe`` per value, and the stored column as the writer's rule
— type the column (the schema's array when it holds the values, NULLs
as validity bits; otherwise the values' own Python type), weigh it under
every encoding that type allows with hand-rolled run, distinct and range
loops over per-value numbers (``_number``: days, microseconds, a
double's bits), keep the least, ties in the order plain, rle,
dictionary, bitpack.  It lives here, not in ``src/``, as the oracle: for
any column the load path must give the same statistics field for field,
the same encoding, the same bytes and the same decoded values.
"""

import math
import pickle
import struct
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.batch import CodedVector
from repro.columnar.compression import choose_scheme
from repro.columnar.stats import DISTINCT_LIMIT, ColumnStats
from repro.columnar.table import ColumnarPartition
from repro.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    TIMESTAMP,
    ArrayType,
    MapType,
    Schema,
    StructType,
)
from repro.errors import AnalysisError
from repro.workloads import pavlo, tpch

# ---------------------------------------------------------------------------
# The per-value reference
# ---------------------------------------------------------------------------

_COMPARABLE = (int, float, str, date, datetime)
#: The schema's array of each type that has one the writer uses.
_ARRAYS = {INT: np.int32, BIGINT: np.int64, DOUBLE: np.float64, BOOLEAN: bool}
#: The order that breaks a tie between encodings of equal length.
_ORDER = ("plain", "rle", "dictionary", "bitpack")
#: Bytes per value of the fixed-width kinds that are not ints or bools.
_WIDTH = {"float": 8, "date": 4, "ts": 8}


def _number(value):
    """The number stored for a value of a fixed-width kind: days (of a
    date) or microseconds (of a datetime) since 1970, a double's bits."""
    if isinstance(value, datetime):
        return (value - datetime(1970, 1, 1)) // timedelta(microseconds=1)
    if isinstance(value, date):
        return (value - date(1970, 1, 1)).days
    if isinstance(value, float):
        return struct.unpack("<q", struct.pack("<d", value))[0]
    return int(value)


def ref_stats(values):
    minimum = maximum = None
    null_count = 0
    distinct = set()
    for value in values:
        if value is None:
            null_count += 1
            continue
        if isinstance(value, _COMPARABLE) and not isinstance(value, bool):
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        if distinct is not None:
            try:
                distinct.add(value)
            except TypeError:
                distinct = None
                continue
            if len(distinct) > DISTINCT_LIMIT:
                distinct = None
    return minimum, maximum, null_count, distinct, len(values)


def ref_type(values, data_type):
    """(kind, stored values): the schema's array when it holds the
    values (no NULL, no int it cannot hold), else the values' own type."""
    present = [value for value in values if value is not None]
    if not present:
        return "nulls", list(values)
    if data_type in _ARRAYS and len(present) == len(values):
        try:
            array = np.asarray(values, dtype=_ARRAYS[data_type])
        except OverflowError:
            pass
        else:
            kind = {"i": "int", "f": "float", "b": "bool"}[array.dtype.kind]
            return kind, array.tolist()
    kinds = {type(value) for value in present}
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int and all(-(2**63) <= v < 2**63 for v in present):
        return "int", list(values)
    if kind is datetime and all(
        v.tzinfo is None and not v.fold for v in present
    ):
        return "ts", list(values)
    names = {float: "float", bool: "bool", str: "str", date: "date"}
    return names.get(kind, "object"), list(values)


def _width(low, high):
    """Bytes of the narrowest signed int holding ``low..high``."""
    for width in (1, 2, 4, 8):
        if -(2 ** (8 * width - 1)) <= low and high < 2 ** (8 * width - 1):
            return width


def _code_width(count):
    return 1 if count <= 2**8 else 2 if count <= 2**16 else 4


def _run_lengths(keys):
    runs = []
    for key in keys:
        if runs and runs[-1][0] == key:
            runs[-1][1] += 1
        else:
            runs.append([key, 1])
    return runs


def ref_sizes(kind, values):
    """Payload bytes of the column under each encoding its kind has."""
    n = len(values)
    if kind == "nulls":
        return {"plain": 0}
    if kind == "object":
        return {"plain": 4 + len(pickle.dumps(values, protocol=4))}
    if kind == "str":
        def size(value):
            return 0 if value is None else len(value.encode("utf-8"))

        runs = _run_lengths(values)  # a NULL is its own key, written ""
        entries = set(value for value in values if value is not None)
        return {
            "plain": 4 * n + sum(map(size, values)),
            "rle": 6 + len(runs) * _width(0, max(r[1] for r in runs))
            + sum(4 + size(key) for key, __ in runs),
            "dictionary": 2 + n * _code_width(len(entries))
            + sum(4 + size(entry) for entry in entries),
        }
    # NULL slots are written as zeros; a dictionary holds present values.
    numbers = [0 if value is None else _number(value) for value in values]
    entries = {_number(value) for value in values if value is not None}

    def value_bytes(count, numbers=numbers):
        if kind == "bool":
            return math.ceil(count / 8)
        if kind == "int":
            return count * _width(min(numbers), max(numbers))
        return count * _WIDTH[kind]

    low, high = min(numbers), max(numbers)
    runs = _run_lengths(numbers)
    sizes = {
        "plain": value_bytes(n),
        "rle": 6 + len(runs) * _width(0, max(r[1] for r in runs))
        + value_bytes(len(runs)),
        "dictionary": 2 + n * _code_width(len(entries))
        + value_bytes(len(entries), entries),
    }
    if kind in ("int", "date", "ts"):
        bits = max((high - low).bit_length(), 1)
        base = _width(low, low) if kind == "int" else _WIDTH[kind]
        sizes["bitpack"] = 2 + math.ceil(n * bits / 8) + base
    return sizes


def ref_column(values, data_type):
    """(encoding, column bytes, decoded values) of the writer's column:
    the least of its encodings' lengths, plus the tag and, where some
    but not all rows are NULL, one validity bit a row."""
    kind, stored = ref_type(values, data_type)
    sizes = ref_sizes(kind, stored)
    scheme = min(sizes, key=lambda name: (sizes[name], _ORDER.index(name)))
    nulls = sum(value is None for value in values)
    if nulls == len(values):
        return scheme, 1, stored
    validity = math.ceil(len(values) / 8) if nulls and kind != "object" else 0
    return scheme, 1 + validity + sizes[scheme], stored


# ---------------------------------------------------------------------------
# Comparison: repr equality tells 0.0 from -0.0, 1 from 1.0 from True, and
# NaN from everything but NaN.
# ---------------------------------------------------------------------------


def _reprs(values):
    return None if values is None else sorted(map(repr, values))


def assert_stats_parity(stats, values):
    minimum, maximum, null_count, distinct, row_count = ref_stats(values)
    assert repr(stats.minimum) == repr(minimum)
    assert repr(stats.maximum) == repr(maximum)
    assert stats.null_count == null_count
    assert stats.row_count == row_count
    assert _reprs(stats.distinct_values) == _reprs(distinct)


def assert_parity(values, data_type):
    assert_stats_parity(ColumnStats.from_values(values), values)

    expected_scheme, expected_bytes, decoded = ref_column(values, data_type)
    scheme = choose_scheme(values, data_type)
    assert scheme.name == expected_scheme
    encoded = scheme.encode(values, data_type)
    assert encoded.scheme_name == expected_scheme
    assert encoded.compressed_bytes == expected_bytes
    assert len(encoded) == len(values)
    vector = encoded.decode()
    assert list(map(repr, vector.to_python_list())) == list(
        map(repr, decoded)
    )
    # A dictionary decodes to its codes and entries, nothing else does.
    assert isinstance(vector, CodedVector) == (expected_scheme == "dictionary")

    # The loading task shares one analysis across the writer and the
    # statistics and must agree with the public entry points called
    # separately.
    partition = ColumnarPartition.from_columns(
        Schema.of(("c", data_type)), [values]
    )
    assert partition.compression_schemes() == [expected_scheme]
    assert len(partition.column_bytes(0)) == expected_bytes
    assert_stats_parity(partition.stats.column("c"), values)
    assert [repr(row[0]) for row in partition.to_rows()] == list(
        map(repr, decoded)
    )


# ---------------------------------------------------------------------------
# Drawn columns
# ---------------------------------------------------------------------------


def nullable(strategy):
    return st.one_of(strategy, st.one_of(st.none(), strategy))


def columns(element, max_size=60):
    """Lists that favour runs and repeats as well as spread-out values."""
    return st.one_of(
        st.lists(element, max_size=max_size),
        st.lists(element, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=max_size)
            if pool else st.just([])
        ),
        st.lists(
            st.tuples(element, st.integers(1, 9)), max_size=12
        ).map(lambda runs: [v for v, n in runs for _ in range(n)]),
    )


_INT32 = st.one_of(st.integers(-50, 50), st.integers(-(2**31), 2**31 - 1))
_INT64 = st.one_of(st.integers(-50, 50), st.integers(-(2**62), 2**62))
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.5, float("nan")]),
)
_DATES = st.integers(0, 4000).map(lambda d: date(1992, 1, 1) + timedelta(d))
_STAMPS = st.integers(0, 10**6).map(
    lambda s: datetime(2000, 1, 1) + timedelta(seconds=s * 37)
)
_PARITY = settings(max_examples=150, deadline=None)


class TestDrawnColumns:
    @given(columns(nullable(_INT32)))
    @_PARITY
    def test_int(self, values):
        assert_parity(values, INT)

    @given(columns(nullable(_INT64)))
    @_PARITY
    def test_bigint(self, values):
        assert_parity(values, BIGINT)

    @given(columns(st.one_of(st.integers(-5, 5), st.booleans())))
    @_PARITY
    def test_bools_inside_int_column(self, values):
        assert_parity(values, INT)
        assert_parity(values, BIGINT)

    @given(columns(nullable(_FLOATS)))
    @_PARITY
    def test_double(self, values):
        assert_parity(values, DOUBLE)

    @given(columns(st.one_of(_FLOATS, st.integers(-(2**40), 2**40))))
    @_PARITY
    def test_mixed_int_float_in_double_column(self, values):
        assert_parity(values, DOUBLE)

    @given(columns(nullable(st.text(max_size=6))))
    @_PARITY
    def test_string(self, values):
        assert_parity(values, STRING)

    @given(columns(nullable(st.booleans())))
    @_PARITY
    def test_boolean(self, values):
        assert_parity(values, BOOLEAN)

    @given(columns(nullable(_DATES)))
    @_PARITY
    def test_date(self, values):
        assert_parity(values, DATE)

    @given(columns(nullable(_STAMPS)))
    @_PARITY
    def test_timestamp(self, values):
        assert_parity(values, TIMESTAMP)

    @given(columns(nullable(st.lists(st.integers(-3, 3), max_size=3))))
    @_PARITY
    def test_array_is_unhashable(self, values):
        assert_parity(values, ArrayType(element_type=INT))

    @given(
        columns(
            nullable(
                st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
            )
        )
    )
    @_PARITY
    def test_map_is_unhashable(self, values):
        assert_parity(values, MapType(key_type=STRING, value_type=INT))

    @given(
        columns(
            nullable(
                st.one_of(
                    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
                    st.complex_numbers(allow_nan=False),
                )
            )
        )
    )
    @_PARITY
    def test_struct_and_complex_values(self, values):
        assert_parity(values, StructType())

    @pytest.mark.parametrize(
        "data_type", [INT, BIGINT, DOUBLE, STRING, BOOLEAN, DATE, TIMESTAMP]
    )
    def test_empty_single_and_all_null(self, data_type):
        single = {
            INT: 7, BIGINT: 2**40, DOUBLE: -0.0, STRING: "x", BOOLEAN: True,
            DATE: date(2000, 1, 1), TIMESTAMP: datetime(2000, 1, 1, 12),
        }[data_type]
        for values in ([], [single], [None], [None] * 5, [single] * 9):
            assert_parity(values, data_type)

    def test_nan_first_poisons_the_range_like_the_loop_did(self):
        nan = float("nan")
        stats = ColumnStats.from_values([nan, 1.0, 2.0])
        assert math.isnan(stats.minimum) and math.isnan(stats.maximum)
        stats = ColumnStats.from_values([1.0, nan, 2.0])
        assert (stats.minimum, stats.maximum) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# Ragged input
# ---------------------------------------------------------------------------


class TestRowWidth:
    SCHEMA = Schema.of(("a", INT), ("b", STRING))

    def test_long_row_is_rejected_not_truncated(self):
        with pytest.raises(AnalysisError, match="row width 3 != table width 2"):
            ColumnarPartition.from_rows(self.SCHEMA, [(1, "x"), (2, "y", 9)])

    def test_short_row_is_rejected_with_a_typed_error(self):
        with pytest.raises(AnalysisError, match="row width 1 != table width 2"):
            ColumnarPartition.from_rows(self.SCHEMA, [(1, "x"), (2,)])

    def test_from_columns_checks_shape(self):
        with pytest.raises(AnalysisError):
            ColumnarPartition.from_columns(self.SCHEMA, [[1, 2]])
        with pytest.raises(AnalysisError):
            ColumnarPartition.from_columns(self.SCHEMA, [[1, 2], ["x"]])

    def test_from_columns_equals_from_rows(self):
        rows = [(i % 3, "v%d" % (i % 5)) for i in range(40)]
        by_rows = ColumnarPartition.from_rows(self.SCHEMA, rows)
        by_columns = ColumnarPartition.from_columns(
            self.SCHEMA, [[r[0] for r in rows], [r[1] for r in rows]]
        )
        assert by_columns.to_rows() == by_rows.to_rows() == rows
        assert by_columns.compression_schemes() == by_rows.compression_schemes()
        assert (
            by_columns.memory_footprint_bytes()
            == by_rows.memory_footprint_bytes()
        )


# ---------------------------------------------------------------------------
# Golden (encoding, column bytes) per column of seeded benchmark data:
# stored bytes cannot drift.  Re-pinned once when the store's encodings
# became tags of the column format and the writer began to keep the
# least of them (CHANGES.md lists every column old -> new; none grew by
# more than its tag and framing, 3 bytes).
# ---------------------------------------------------------------------------

_LINEITEM = tpch.generate_lineitem(num_rows=2000)
_DATASETS = {
    "lineitem": _LINEITEM.rows,
    "lineitem_by_shipmode": sorted(
        _LINEITEM.rows, key=lambda row: (row[12], row[8])
    ),
    "orders": tpch.generate_orders(num_rows=600).rows,
    "customer": tpch.generate_customer(num_rows=300).rows,
    "supplier": tpch.generate_supplier(num_rows=200).rows,
    "rankings": pavlo.generate_rankings(num_rows=600).rows,
    "uservisits": pavlo.generate_uservisits(
        num_rows=1500, num_pages=600
    ).rows,
}
_SCHEMAS = {
    "lineitem": tpch.LINEITEM_SCHEMA,
    "lineitem_by_shipmode": tpch.LINEITEM_SCHEMA,
    "orders": tpch.ORDERS_SCHEMA,
    "customer": tpch.CUSTOMER_SCHEMA,
    "supplier": tpch.SUPPLIER_SCHEMA,
    "rankings": pavlo.RANKINGS_SCHEMA,
    "uservisits": pavlo.USERVISITS_SCHEMA,
}
_GOLDEN = {
    "lineitem": [
        ("L_ORDERKEY", "bitpack", 2254),
        ("L_PARTKEY", "bitpack", 2504),
        ("L_SUPPKEY", "bitpack", 504),
        ("L_LINENUMBER", "bitpack", 754),
        ("L_QUANTITY", "dictionary", 2403),
        ("L_EXTENDEDPRICE", "plain", 16001),
        ("L_DISCOUNT", "dictionary", 2043),
        ("L_TAX", "dictionary", 2035),
        ("L_RETURNFLAG", "dictionary", 2018),
        ("L_LINESTATUS", "dictionary", 2013),
        ("L_SHIPDATE", "bitpack", 3007),
        ("L_RECEIPTDATE", "bitpack", 3007),
        ("L_SHIPMODE", "dictionary", 2061),
    ],
    "lineitem_by_shipmode": [
        ("L_ORDERKEY", "bitpack", 2254),
        ("L_PARTKEY", "bitpack", 2504),
        ("L_SUPPKEY", "bitpack", 504),
        ("L_LINENUMBER", "bitpack", 754),
        ("L_QUANTITY", "dictionary", 2403),
        ("L_EXTENDEDPRICE", "plain", 16001),
        ("L_DISCOUNT", "dictionary", 2043),
        ("L_TAX", "dictionary", 2035),
        ("L_RETURNFLAG", "rle", 133),
        ("L_LINESTATUS", "dictionary", 2013),
        ("L_SHIPDATE", "bitpack", 3007),
        ("L_RECEIPTDATE", "bitpack", 3007),
        ("L_SHIPMODE", "rle", 79),
    ],
    "orders": [
        ("O_ORDERKEY", "bitpack", 754),
        ("O_CUSTKEY", "bitpack", 454),
        ("O_ORDERSTATUS", "dictionary", 618),
        ("O_TOTALPRICE", "plain", 4801),
        ("O_ORDERDATE", "bitpack", 907),
        ("O_ORDERPRIORITY", "dictionary", 665),
    ],
    "customer": [
        ("C_CUSTKEY", "bitpack", 342),
        ("C_NAME", "plain", 6601),
        ("C_NATIONKEY", "bitpack", 192),
        ("C_ACCTBAL", "plain", 2401),
        ("C_MKTSEGMENT", "dictionary", 368),
    ],
    "supplier": [
        ("S_SUPPKEY", "bitpack", 204),
        ("S_NAME", "plain", 4401),
        ("S_ADDRESS", "plain", 5864),
        ("S_NATIONKEY", "bitpack", 129),
        ("S_PHONE", "plain", 3801),
        ("S_ACCTBAL", "plain", 1601),
    ],
    "rankings": [
        ("pageURL", "plain", 5891),
        ("pageRank", "bitpack", 529),
        ("avgDuration", "bitpack", 454),
    ],
    "uservisits": [
        ("sourceIP", "dictionary", 8586),
        ("destURL", "dictionary", 5483),
        ("visitDate", "bitpack", 1320),
        ("adRevenue", "plain", 12001),
        ("userAgent", "dictionary", 1555),
        ("countryCode", "dictionary", 1559),
        ("languageCode", "dictionary", 1545),
        ("searchWord", "dictionary", 1568),
        ("duration", "bitpack", 1879),
    ],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_scheme_and_bytes(name):
    schema, rows = _SCHEMAS[name], _DATASETS[name]
    partition = ColumnarPartition.from_rows(schema, rows)
    actual = [
        (field.name, scheme, len(partition.column_bytes(index)))
        for index, (field, scheme) in enumerate(
            zip(schema.fields, partition.compression_schemes())
        )
    ]
    assert actual == _GOLDEN[name]
    assert partition.to_rows() == rows
    # And every column still agrees with the per-value reference.
    for index, field in enumerate(schema.fields):
        assert_parity([row[index] for row in rows], field.data_type)
