"""The column-at-a-time load path against a literal per-value reference.

The reference below states the load path value by value: type the
column by its declared type (NULLs as validity bits; a value of another
type rejects the column), take the statistics as one ``observe`` per
typed value, and write the stored column by the writer's rule — weigh it
under every encoding its type allows with hand-rolled run, distinct and
range loops over per-value numbers (``_number``: days, microseconds, a
double's bits), keep the least, ties in the order plain, rle,
dictionary, bitpack.  It lives here, not in ``src/``, as the oracle: for
any column the load path must give the same statistics field for field,
the same encoding, the same bytes and the same decoded values.
"""

import math
import struct
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SharkContext
from repro.columnar.batch import CodedVector, ColumnBatch
from repro.columnar.compression import choose_scheme
from repro.columnar.serde import write_column
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
from repro.errors import AnalysisError, CompressionError, TypeMismatchError
from repro.workloads import pavlo, tpch
from tests.conftest import memo_free_pickle

# ---------------------------------------------------------------------------
# The per-value reference
# ---------------------------------------------------------------------------

_COMPARABLE = (int, float, str, date, datetime)
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
    """Per typed value: a NaN is in no range (every comparison with it is
    false) but is one distinct value; equal values count as the first."""
    minimum = maximum = None
    null_count = 0
    distinct = set()
    seen_nan = False
    for value in values:
        if value is None:
            null_count += 1
            continue
        nan = value != value
        if (
            isinstance(value, _COMPARABLE)
            and not isinstance(value, bool)
            and not nan
        ):
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        if distinct is not None and not (nan and seen_nan):
            seen_nan = seen_nan or nan
            try:
                distinct.add(value)
            except TypeError:
                distinct = None
                continue
            if len(distinct) > DISTINCT_LIMIT:
                distinct = None
    return minimum, maximum, null_count, distinct, len(values)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


#: Per declared type: the kind it is stored as and the values it takes.
_DECLARED = {
    INT: ("int", _is_int),
    BIGINT: ("int", _is_int),
    DOUBLE: ("float", lambda v: _is_int(v) or isinstance(v, float)),
    BOOLEAN: ("bool", lambda v: isinstance(v, bool)),
    STRING: ("str", lambda v: isinstance(v, str)),
    DATE: (
        "date",
        lambda v: isinstance(v, date) and not isinstance(v, datetime),
    ),
    TIMESTAMP: ("ts", lambda v: isinstance(v, datetime)),
}


def ref_type(values, data_type):
    """(kind, stored values) of the column typed by its declared type,
    NULLs as validity bits; None when a value is not of that type."""
    present = [value for value in values if value is not None]
    if not present:
        return "nulls", list(values)
    if data_type not in _DECLARED:  # ARRAY / MAP / STRUCT: as given
        return "object", list(values)
    kind, takes = _DECLARED[data_type]
    if not all(map(takes, present)):
        return None
    if kind == "float":
        return kind, [None if v is None else float(v) for v in values]
    # No array slot: an int beyond int64, a datetime with a zone or fold.
    if kind == "int" and not all(-(2**63) <= v < 2**63 for v in present):
        return "object", list(values)
    if kind == "ts" and any(v.tzinfo or v.fold for v in present):
        return "object", list(values)
    return kind, list(values)


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
        return {"plain": 4 + len(memo_free_pickle(values))}
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


def _stats(stats):
    return (
        repr(stats.minimum), repr(stats.maximum), stats.null_count,
        stats.row_count, _reprs(stats.distinct_values),
    )


def _load(values, data_type):
    return ColumnarPartition.from_rows(
        Schema.of(("c", data_type)), [(value,) for value in values]
    )


def assert_parity(values, data_type):
    typed = ref_type(values, data_type)
    if typed is None:
        # A value not of the declared type: every way in refuses it.
        for write in (choose_scheme, _load):
            with pytest.raises(TypeMismatchError, match="cannot store"):
                write(values, data_type)
        return
    __, stored = typed
    assert_stats_parity(ColumnStats.from_values(stored), stored)

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

    # The loading task types the column once; the writer and the
    # statistics both read that vector and must agree with the public
    # entry points called separately.
    partition = _load(values, data_type)
    assert partition.compression_schemes() == [expected_scheme]
    assert len(partition.column_bytes(0)) == expected_bytes
    assert_stats_parity(partition.stats.column("c"), stored)
    assert [repr(row[0]) for row in partition.to_rows()] == list(
        map(repr, decoded)
    )
    # ... and its pick is the first of equals among the encodings forced
    # one at a time on the typed vector.
    schema = Schema.of(("c", data_type))
    rows = [(value,) for value in values]
    vector = ColumnBatch.from_rows(rows, 1).typed(schema).vector(0)
    forced = {}
    for name in _ORDER:
        try:
            forced[name] = len(write_column(vector, (name,)))
        except CompressionError:  # not an encoding of this column
            pass
    first = min(forced, key=lambda name: (forced[name], _ORDER.index(name)))
    assert (first, forced[first]) == (expected_scheme, expected_bytes)


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
    @example(list(range(DISTINCT_LIMIT)))
    @example(list(range(DISTINCT_LIMIT + 1)) + [None])
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
        for data_type in (INT, BIGINT):
            assert_parity(values, data_type)
            if any(isinstance(value, bool) for value in values):
                with pytest.raises(TypeMismatchError, match="True|False"):
                    _load(values, data_type)

    @given(columns(nullable(_FLOATS)))
    @example([0.0, -0.0, 0.0, 1.5])
    @example([-0.0, None, 0.0, float("nan"), -0.0])
    # 64 distinct values in 65 keys (-0.0 and 0.0), then 65 with a NaN.
    @example([float(n) for n in range(1, DISTINCT_LIMIT)] + [-0.0, 0.0])
    @example([float(n) for n in range(DISTINCT_LIMIT)] + [-0.0, float("nan")])
    @_PARITY
    def test_double(self, values):
        assert_parity(values, DOUBLE)

    @given(columns(st.one_of(_FLOATS, st.integers(-(2**40), 2**40))))
    @_PARITY
    def test_mixed_int_float_in_double_column(self, values):
        assert_parity(values, DOUBLE)
        # Widened: every int reads back as its float.
        decoded = _load(values, DOUBLE).column(0).to_python_list()
        assert list(map(repr, decoded)) == [repr(float(v)) for v in values]

    @given(columns(nullable(st.text(max_size=6))))
    @example([str(n) for n in range(DISTINCT_LIMIT + 1)])
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

    def test_nan_is_in_no_range_and_one_distinct_value(self):
        nan = float("nan")
        for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0, float("nan")]):
            stats = ColumnStats.from_values(values)
            assert (stats.minimum, stats.maximum) == (1.0, 2.0)
            assert _reprs(stats.distinct_values) == ["1.0", "2.0", "nan"]
        stats = ColumnStats.from_values([nan, None, nan])
        assert (stats.minimum, stats.maximum) == (None, None)
        assert _reprs(stats.distinct_values) == ["nan"]
        # So ``<>`` on a partition of one value besides NaN keeps it.
        shark = SharkContext(num_workers=2)
        shark.create_table("t", Schema.of(("x", DOUBLE)), cached=True)
        shark.load_rows("t", [(1.0,), (nan,)], num_partitions=1)
        rows = shark.sql("SELECT x FROM t WHERE x <> 1.0").rows
        assert len(rows) == 1 and math.isnan(rows[0][0])

    @given(
        st.one_of(
            *(
                columns(strategy).map(lambda v, t=data_type: (t, v))
                for data_type, strategy in (
                    (INT, nullable(st.one_of(_INT32, st.booleans()))),
                    (BIGINT, nullable(_INT64)),
                    (DOUBLE, nullable(st.one_of(_FLOATS, _INT32))),
                    (STRING, nullable(st.one_of(st.text(max_size=3), _INT32))),
                    (BOOLEAN, nullable(st.one_of(st.booleans(), _INT32))),
                    (DATE, nullable(st.one_of(_DATES, _STAMPS))),
                    (TIMESTAMP, nullable(_STAMPS)),
                )
            )
        )
    )
    @_PARITY
    def test_block_stats_are_the_stats_of_its_values(self, drawn):
        """A block's statistics describe the values it returns."""
        data_type, values = drawn
        try:
            block = _load(values, data_type)
        except TypeMismatchError:
            return
        decoded = block.column(0).to_python_list()
        assert _stats(block.stats.column("c")) == _stats(
            ColumnStats.from_values(decoded)
        )


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

    def test_from_batch_checks_shape(self):
        with pytest.raises(AnalysisError):
            ColumnarPartition.from_batch(
                self.SCHEMA, ColumnBatch.from_columns([[1, 2]])
            )

    def test_from_batch_equals_from_rows(self):
        rows = [(i % 3, "v%d" % (i % 5)) for i in range(40)]
        by_rows = ColumnarPartition.from_rows(self.SCHEMA, rows)
        by_batch = ColumnarPartition.from_batch(
            self.SCHEMA,
            ColumnBatch.from_columns(
                [
                    np.array([r[0] for r in rows], dtype=np.int32),
                    [r[1] for r in rows],
                ]
            ),
        )
        assert by_batch.to_rows() == by_rows.to_rows() == rows
        assert by_batch.compression_schemes() == by_rows.compression_schemes()
        assert (
            by_batch.memory_footprint_bytes()
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
