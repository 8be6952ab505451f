"""The column-at-a-time load path against a literal per-value reference.

The reference below is the value-by-value load path the column analysis
replaced (one ``observe`` per value, hand-rolled run/dictionary/RLE
loops).  It lives here, not in ``src/``, as the oracle: for any column
the new path must give the same statistics field for field, the same
scheme, the same ``compressed_bytes``, the same decoded values and the
same dictionary code order.  One corner of the old path is corrected in
the reference too: a BOOLEAN column with a NULL used to take the bitset,
which has no room for a third value and decoded it as False; it now
takes the route DATE used to (dictionary if few distinct, else a plain
list).  DATE and TIMESTAMP themselves take the numeric route since they
became datetime64 columns (with a NULL, for which the array has no slot,
they keep the old one): the reference states that with per-value
arithmetic of its own (``_number``), four bytes a day number and eight a
microsecond count.
"""

import math
import pickle
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.compression import (
    DEFAULT_DICTIONARY_THRESHOLD,
    DICTIONARY_RATIO,
    MAX_PACK_BITS,
    MIN_AVG_RUN_LENGTH,
    choose_scheme,
)
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
_NUMPY = {INT: np.int32, BIGINT: np.int64, DOUBLE: np.float64}
#: Stored bytes per value of the types held as their number.
_TIMED = {DATE: 4, TIMESTAMP: 8}


def _number(value):
    """Days (of a date) or microseconds (of a datetime) since 1970."""
    if isinstance(value, datetime):
        return (value - datetime(1970, 1, 1)) // timedelta(microseconds=1)
    if isinstance(value, date):
        return (value - date(1970, 1, 1)).days
    return value


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


def ref_choose(values, data_type, threshold=DEFAULT_DICTIONARY_THRESHOLD):
    if not values:
        return "plain"
    if data_type == BOOLEAN and None not in values:
        return "bitset"
    if data_type == BOOLEAN or (data_type in _TIMED and None in values):
        distinct = len(set(values))
        if distinct <= threshold and distinct / len(values) <= DICTIONARY_RATIO:
            return "dictionary"
        return "plain"
    numeric = data_type in _NUMPY or data_type in _TIMED
    if not numeric and data_type != STRING:
        return "blob"
    if any(value is None for value in values):
        return "plain"
    runs = 1
    for previous, current in zip(values, values[1:]):
        if current != previous:
            runs += 1
    distinct = len(set(values))
    if len(values) / runs >= MIN_AVG_RUN_LENGTH:
        return "rle"
    if distinct <= threshold and distinct / len(values) <= DICTIONARY_RATIO:
        return "dictionary"
    if numeric and data_type != DOUBLE:
        array = np.asarray(list(map(_number, values)), dtype=np.int64)
        span = int(array.max()) - int(array.min())
        if span.bit_length() <= MAX_PACK_BITS:
            return "bitpack"
    return "plain"


def _ref_plain(values, data_type):
    """(decoded values, bytes) of plain storage."""
    dtype = _NUMPY.get(data_type)
    if dtype is not None and all(value is not None for value in values):
        array = np.asarray(values, dtype=dtype)
        return array.tolist(), int(array.nbytes)
    if data_type in _TIMED and all(value is not None for value in values):
        return list(values), _TIMED[data_type] * len(values)
    if data_type == STRING:
        payload = sum(
            len(value.encode("utf-8")) if value is not None else 0
            for value in values
        )
        return list(values), payload + 4 * len(values)
    return list(values), len(pickle.dumps(list(values), protocol=4))


def ref_encode(scheme, values, data_type):
    """(decoded values, compressed bytes, (dictionary, codes) or None)."""
    if scheme == "plain":
        return (*_ref_plain(values, data_type), None)
    if scheme == "rle":
        runs = []
        for value in values:
            if runs and runs[-1][0] == value:
                runs[-1][1] += 1
            else:
                runs.append([value, 1])
        run_values, run_bytes = _ref_plain([r[0] for r in runs], data_type)
        decoded = []
        for value, (__, length) in zip(run_values, runs):
            decoded.extend([value] * length)
        return decoded, run_bytes + 4 * len(runs), None
    if scheme == "dictionary":
        dictionary = {}
        codes = [dictionary.setdefault(v, len(dictionary)) for v in values]
        entries, entry_bytes = _ref_plain(list(dictionary), data_type)
        width = 1 if len(dictionary) <= 2**8 else (
            2 if len(dictionary) <= 2**16 else 4
        )
        decoded = [entries[code] for code in codes]
        view = (list(dictionary), codes)
        return decoded, entry_bytes + width * len(values), view
    if scheme == "bitpack":
        numbers = list(map(_number, values))
        width = max((max(numbers) - min(numbers)).bit_length(), 1)
        packed = math.ceil(len(values) * width / 8)
        return _ref_plain(values, data_type)[0], packed + 16, None
    if scheme == "bitset":
        decoded = [bool(value) for value in values]
        return decoded, math.ceil(len(values) / 8), None
    assert scheme == "blob"
    payload = sum(len(pickle.dumps(v, protocol=4)) for v in values)
    return list(values), payload + 8 * (len(values) + 1), None


# ---------------------------------------------------------------------------
# Comparison: repr equality tells 0.0 from -0.0, 1 from 1.0 from True, and
# NaN from everything but NaN.
# ---------------------------------------------------------------------------


def _as_list(decoded):
    return decoded.tolist() if isinstance(decoded, np.ndarray) else list(decoded)


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

    expected_scheme = ref_choose(values, data_type)
    scheme = choose_scheme(values, data_type)
    assert scheme.name == expected_scheme
    encoded = scheme.encode(values, data_type)
    decoded, expected_bytes, expected_view = ref_encode(
        expected_scheme, values, data_type
    )
    assert encoded.scheme_name == expected_scheme
    assert encoded.compressed_bytes == expected_bytes
    assert len(encoded) == len(values)
    assert list(map(repr, _as_list(encoded.decode()))) == list(
        map(repr, decoded)
    )
    view = encoded.dictionary_view()
    if expected_view is None:
        assert view is None
    else:
        # Codes number the distinct values in first-occurrence order.
        assert list(map(repr, view[1])) == list(map(repr, expected_view[0]))
        assert view[0].tolist() == expected_view[1]

    # The loading task shares one analysis across all three consumers and
    # must agree with the three public entry points called separately.
    partition = ColumnarPartition.from_columns(
        Schema.of(("c", data_type)), [values]
    )
    shared = partition.encoded_column(0)
    assert shared.scheme_name == expected_scheme
    assert shared.compressed_bytes == expected_bytes
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
# Golden (scheme, compressed bytes) per column of seeded benchmark data,
# recorded from the per-value load path: stored bytes cannot drift.  The
# DATE columns were re-pinned once, when they became datetime64 columns
# (L_SHIPDATE / L_RECEIPTDATE plain 26036 -> bitpack 3016, O_ORDERDATE
# plain 7834 -> bitpack 916, visitDate dictionary 2704 -> 1860).
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
        ("L_ORDERKEY", "dictionary", 5952),
        ("L_PARTKEY", "dictionary", 6524),
        ("L_SUPPKEY", "dictionary", 2012),
        ("L_LINENUMBER", "dictionary", 2028),
        ("L_QUANTITY", "dictionary", 2400),
        ("L_EXTENDEDPRICE", "plain", 16000),
        ("L_DISCOUNT", "dictionary", 2040),
        ("L_TAX", "dictionary", 2032),
        ("L_RETURNFLAG", "dictionary", 2015),
        ("L_LINESTATUS", "dictionary", 2010),
        ("L_SHIPDATE", "bitpack", 3016),
        ("L_RECEIPTDATE", "bitpack", 3016),
        ("L_SHIPMODE", "dictionary", 2058),
    ],
    "lineitem_by_shipmode": [
        ("L_ORDERKEY", "dictionary", 5952),
        ("L_PARTKEY", "dictionary", 6524),
        ("L_SUPPKEY", "dictionary", 2012),
        ("L_LINENUMBER", "dictionary", 2028),
        ("L_QUANTITY", "dictionary", 2400),
        ("L_EXTENDEDPRICE", "plain", 16000),
        ("L_DISCOUNT", "dictionary", 2040),
        ("L_TAX", "dictionary", 2032),
        ("L_RETURNFLAG", "rle", 189),
        ("L_LINESTATUS", "dictionary", 2010),
        ("L_SHIPDATE", "bitpack", 3016),
        ("L_RECEIPTDATE", "bitpack", 3016),
        ("L_SHIPMODE", "rle", 86),
    ],
    "orders": [
        ("O_ORDERKEY", "bitpack", 766),
        ("O_CUSTKEY", "dictionary", 840),
        ("O_ORDERSTATUS", "dictionary", 615),
        ("O_TOTALPRICE", "plain", 4800),
        ("O_ORDERDATE", "bitpack", 916),
        ("O_ORDERPRIORITY", "dictionary", 662),
    ],
    "customer": [
        ("C_CUSTKEY", "bitpack", 354),
        ("C_NAME", "plain", 6600),
        ("C_NATIONKEY", "dictionary", 400),
        ("C_ACCTBAL", "plain", 2400),
        ("C_MKTSEGMENT", "dictionary", 365),
    ],
    "supplier": [
        ("S_SUPPKEY", "bitpack", 216),
        ("S_NAME", "plain", 4400),
        ("S_ADDRESS", "plain", 5863),
        ("S_NATIONKEY", "dictionary", 300),
        ("S_PHONE", "plain", 3800),
        ("S_ACCTBAL", "plain", 1600),
    ],
    "rankings": [
        ("pageURL", "plain", 5890),
        ("pageRank", "dictionary", 1004),
        ("avgDuration", "dictionary", 840),
    ],
    "uservisits": [
        ("sourceIP", "dictionary", 8583),
        ("destURL", "dictionary", 5480),
        ("visitDate", "dictionary", 1860),
        ("adRevenue", "plain", 12000),
        ("userAgent", "dictionary", 1552),
        ("countryCode", "dictionary", 1556),
        ("languageCode", "dictionary", 1542),
        ("searchWord", "dictionary", 1565),
        ("duration", "dictionary", 5236),
    ],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_scheme_and_bytes(name):
    schema, rows = _SCHEMAS[name], _DATASETS[name]
    partition = ColumnarPartition.from_rows(schema, rows)
    actual = [
        (
            field.name,
            partition.encoded_column(index).scheme_name,
            partition.encoded_column(index).compressed_bytes,
        )
        for index, field in enumerate(schema.fields)
    ]
    assert actual == _GOLDEN[name]
    assert partition.to_rows() == rows
    # And every column still agrees with the per-value reference.
    for index, field in enumerate(schema.fields):
        assert_parity([row[index] for row in rows], field.data_type)
