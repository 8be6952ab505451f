"""The memstore's encodings: lossless roundtrips, byte counts, and the
writer's choice of the smallest (DESIGN §16)."""

import pickle
from datetime import date, datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import ColumnarPartition
from repro.columnar.compression import (
    BITPACK,
    DICTIONARY,
    PLAIN,
    RLE,
    choose_scheme,
)
from repro.datatypes import (
    ArrayType,
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    BIGINT,
    STRING,
    TIMESTAMP,
    Schema,
)
from repro.errors import CompressionError


def _decode_list(encoded):
    return encoded.decode().to_python_list()


class TestPlain:
    def test_int_roundtrip_as_array(self):
        values = [5, -3, 7, 0]
        encoded = PLAIN.encode(values, INT)
        assert _decode_list(encoded) == values
        assert encoded.decode().is_array
        # The tag, then one byte a value: the narrowest width holding them.
        assert encoded.compressed_bytes == 1 + 4

    def test_string_roundtrip_with_arena_accounting(self):
        values = ["hello", "", "world"]
        encoded = PLAIN.encode(values, STRING)
        assert _decode_list(encoded) == values
        assert encoded.compressed_bytes == 1 + 4 * 3 + len("helloworld")

    def test_nullable_int_keeps_validity_bits(self):
        values = [1, None, 3]
        encoded = PLAIN.encode(values, INT)
        assert _decode_list(encoded) == values
        vector = encoded.decode()
        assert vector.is_array and vector.valid.tolist() == [1, 0, 1]
        # The tag, one validity byte, a byte a slot (NULL's holds 0).
        assert encoded.compressed_bytes == 1 + 1 + 3


class TestRunLength:
    def test_roundtrip(self):
        values = [1, 1, 1, 2, 2, 3] * 10
        encoded = RLE.encode(values, INT)
        assert _decode_list(encoded) == values

    def test_compresses_long_runs(self):
        values = [7] * 1000
        encoded = RLE.encode(values, INT)
        # Tag, run count, one 2-byte length, one 1-byte value (each nested).
        assert encoded.compressed_bytes == 1 + 4 + (1 + 2) + (1 + 1)
        assert encoded.compressed_bytes < PLAIN.encode(values, INT).compressed_bytes

    def test_string_runs(self):
        values = ["a"] * 5 + ["b"] * 5
        encoded = RLE.encode(values, STRING)
        assert _decode_list(encoded) == values
        # Two runs: two 1-byte lengths, two 1-byte strings with offsets.
        assert encoded.compressed_bytes == 1 + 4 + (1 + 2) + (1 + 8 + 2)

    def test_length_preserved(self):
        values = [1, 2, 2, 3]
        assert len(RLE.encode(values, INT)) == 4


class TestDictionary:
    def test_roundtrip_strings(self):
        values = ["AIR", "SHIP", "AIR", "RAIL"] * 50
        encoded = DICTIONARY.encode(values, STRING)
        assert _decode_list(encoded) == values
        assert len(encoded.decode().dictionary) == 3

    def test_code_width_grows_with_cardinality(self):
        small = DICTIONARY.encode([str(i % 4) for i in range(100)], STRING)
        large = DICTIONARY.encode([str(i) for i in range(300)], STRING)
        # Tag, code width, the codes, then the entries as a string column.
        assert small.compressed_bytes == 2 + 1 * 100 + (1 + 4 * 4 + 4)
        entries = 1 + 4 * 300 + len("".join(map(str, range(300))))
        assert large.compressed_bytes == 2 + 2 * 300 + entries

    def test_beats_plain_on_enum_column(self):
        values = ["CANCELLED", "SHIPPED", "PENDING"] * 1000
        dict_bytes = DICTIONARY.encode(values, STRING).compressed_bytes
        plain_bytes = PLAIN.encode(values, STRING).compressed_bytes
        assert dict_bytes < plain_bytes / 2

    def test_numeric_dictionary(self):
        values = [100, 200, 100, 300] * 10
        encoded = DICTIONARY.encode(values, INT)
        assert _decode_list(encoded) == values


class TestBitPacking:
    def test_roundtrip_small_range(self):
        values = [3, 7, 0, 5, 2]
        encoded = BITPACK.encode(values, INT)
        assert _decode_list(encoded) == values
        # Tag, bit width, 5 x 3 bits, the base (0) as a nested int8.
        assert encoded.compressed_bytes == 1 + 1 + 2 + (1 + 1)

    def test_offset_handles_negatives(self):
        values = [-10, -8, -9]
        encoded = BITPACK.encode(values, INT)
        assert _decode_list(encoded) == values

    def test_single_value_width_one(self):
        encoded = BITPACK.encode([42, 42, 42], INT)
        assert encoded.compressed_bytes == 1 + 1 + 1 + (1 + 1)
        assert _decode_list(encoded) == [42, 42, 42]

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            BITPACK.encode([], INT)

    def test_packs_tighter_than_plain(self):
        values = [i % 16 + 1000 for i in range(10000)]
        packed = BITPACK.encode(values, INT).compressed_bytes
        plain = PLAIN.encode(values, INT).compressed_bytes
        assert packed < plain / 3


class TestBitset:
    def test_roundtrip(self):
        values = [True, False, True, True, False]
        encoded = PLAIN.encode(values, BOOLEAN)
        assert _decode_list(encoded) == values

    def test_one_bit_per_value(self):
        encoded = PLAIN.encode([True] * 800, BOOLEAN)
        assert encoded.compressed_bytes == 1 + 100


class TestBlob:
    def test_complex_roundtrip(self):
        values = [["a", "b"], [], ["c"]]
        encoded = PLAIN.encode(values, ArrayType(element_type=STRING))
        assert _decode_list(encoded) == values

    def test_dict_values(self):
        values = [{"k": 1}, {"j": 2, "k": 3}]
        encoded = PLAIN.encode(values, STRING)
        assert _decode_list(encoded) == values


class TestChooseScheme:
    def test_boolean_gets_bitset(self):
        assert choose_scheme([True, False], BOOLEAN) is PLAIN
        assert PLAIN.encode([True, False], BOOLEAN).compressed_bytes == 2

    def test_clustered_column_gets_rle(self):
        values = [1] * 100 + [2] * 100
        assert choose_scheme(values, INT).name == "rle"

    def test_enum_strings_get_dictionary(self):
        values = ["AIR", "SHIP", "RAIL", "TRUCK"] * 100
        assert choose_scheme(values, STRING).name == "dictionary"

    def test_small_range_ints_get_bitpack(self):
        # Too many distinct values for a dictionary, but a narrow range.
        values = [i % 3000 for i in range(1, 20000, 7)]
        assert choose_scheme(values, INT).name == "bitpack"

    def test_wide_unique_values_stay_plain(self):
        # Spread over all of int64: every offset needs 64 bits.
        values = [
            (i * 0x9E3779B97F4A7C15) % 2 ** 64 - 2 ** 63 for i in range(1000)
        ]
        assert choose_scheme(values, BIGINT).name == "plain"

    def test_doubles_never_bitpacked(self):
        values = [float(i % 10) for i in range(1, 1000, 3)]
        assert choose_scheme(values, DOUBLE).name in ("plain", "dictionary")
        with pytest.raises(CompressionError):
            BITPACK.encode(values, DOUBLE)

    def test_nulls_are_validity_bits_for_primitives(self):
        values = [1, None] * 100
        encoded = choose_scheme(values, INT).encode(values, INT)
        assert _decode_list(encoded) == values
        assert encoded.decode().is_array

    def test_complex_types_get_blob(self):
        values = [["x"], ["y"]] * 10
        scheme = choose_scheme(values, ArrayType(element_type=STRING))
        assert scheme is PLAIN
        encoded = scheme.encode(values, ArrayType(element_type=STRING))
        assert encoded.compressed_bytes == 1 + 4 + len(
            pickle.dumps(values, protocol=4)
        )

    def test_empty_column_plain(self):
        assert choose_scheme([], INT) is PLAIN


class TestPropertyRoundtrips:
    @given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_int_roundtrip_any_scheme(self, values):
        scheme = choose_scheme(values, INT)
        assert _decode_list(scheme.encode(values, INT)) == values

    @given(st.lists(st.text(max_size=20), min_size=0, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_string_roundtrip_any_scheme(self, values):
        scheme = choose_scheme(values, STRING)
        assert _decode_list(scheme.encode(values, STRING)) == values

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_bool_roundtrip(self, values):
        assert _decode_list(PLAIN.encode(values, BOOLEAN)) == values

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_double_roundtrip(self, values):
        values = [float(v) for v in values]
        scheme = choose_scheme(values, DOUBLE)
        decoded = _decode_list(scheme.encode(values, DOUBLE))
        assert list(map(repr, decoded)) == list(map(repr, values))


class TestAdversarialRoundtrips:
    """Adversarial inputs the writer must survive losslessly.

    These are the loading-task edge cases: empty partitions, columns
    that are entirely NULL, degenerate single-value runs, integers
    spanning every width class in one column, and non-ASCII strings.
    Each case round-trips both through ``choose_scheme`` directly and
    through a full :class:`ColumnarPartition` load.
    """

    def _roundtrip(self, values, data_type):
        scheme = choose_scheme(values, data_type)
        encoded = scheme.encode(values, data_type)
        assert len(encoded) == len(values)
        assert _decode_list(encoded) == values

    def _partition_roundtrip(self, values, data_type, compress=True):
        schema = Schema.of(("c", data_type))
        part = ColumnarPartition.from_rows(
            schema, [(value,) for value in values], compress=compress
        )
        assert [row[0] for row in part.iter_rows()] == values

    def test_empty_partition(self):
        for data_type in (INT, BIGINT, DOUBLE, STRING, BOOLEAN):
            self._roundtrip([], data_type)
            self._partition_roundtrip([], data_type)
            self._partition_roundtrip([], data_type, compress=False)

    def test_all_null_column(self):
        values = [None] * 64
        for data_type in (INT, DOUBLE, STRING):
            self._roundtrip(values, data_type)
            self._partition_roundtrip(values, data_type)
            self._partition_roundtrip(values, data_type, compress=False)

    def test_single_value_runs(self):
        self._roundtrip([7] * 500, INT)
        self._roundtrip(["only"] * 500, STRING)
        self._partition_roundtrip([7] * 500, INT)
        self._partition_roundtrip(["only"] * 500, STRING)

    def test_mixed_int_widths(self):
        values = [0, 1, -1, 127, -128, 2**15, -(2**15), 2**31 - 1,
                  -(2**31), 2**62, -(2**62)]
        self._roundtrip(values, BIGINT)
        self._partition_roundtrip(values, BIGINT)
        self._partition_roundtrip(values, BIGINT, compress=False)

    def test_unicode_strings(self):
        values = ["", "über", "naïve", "日本語", "🦈" * 10, "a\x00b",
                  " line", "ﬀ ligature"]
        self._roundtrip(values, STRING)
        self._partition_roundtrip(values, STRING)
        self._partition_roundtrip(values, STRING, compress=False)

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-(2**62), 2**62),
            ),
            max_size=150,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nullable_bigint_partition_roundtrip(self, values):
        self._partition_roundtrip(values, BIGINT)

    @given(
        st.lists(
            st.one_of(st.none(), st.text(max_size=12)),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nullable_unicode_partition_roundtrip(self, values):
        self._partition_roundtrip(values, STRING)

    @given(
        st.lists(st.integers(-5, 5), max_size=120),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_and_narrow_ints_partition_roundtrip(
        self, values, compress
    ):
        # Small domains drive the writer toward RLE/dictionary/bitpack.
        self._partition_roundtrip(values, INT, compress=compress)


# ---------------------------------------------------------------------------
# DATE and TIMESTAMP: datetime64 columns under every scheme
# ---------------------------------------------------------------------------


class _Day(date):
    """A date subclass: a value no datetime64 array gives back."""


_TEMPORAL = {
    DATE: [
        date.min, date(1960, 2, 29), date(1969, 12, 31), date(1970, 1, 1),
        date(2000, 1, 1), date.max,
    ],
    TIMESTAMP: [
        datetime.min, datetime(1960, 2, 29, 12), datetime(1969, 12, 31, 23,
        59, 59, 999999), datetime(1970, 1, 1), datetime(2013, 3, 10, 2, 30),
        datetime.max,
    ],
}
_SHAPES = {
    "no NULL": lambda values: values,
    "runs": lambda values: [v for v in values for __ in range(5)],
    "repeats": lambda values: values * 4,
    "some NULL": lambda values: [None] + values * 3 + [None],
    "all NULL": lambda values: [None] * 5,
    "empty": lambda values: [],
}
_ARRAY_DTYPE = {DATE: "datetime64[D]", TIMESTAMP: "datetime64[us]"}


class TestTemporalColumns:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize(
        "scheme", [None, PLAIN, RLE, DICTIONARY, BITPACK],
        ids=["chosen", "plain", "rle", "dictionary", "bitpack"],
    )
    @pytest.mark.parametrize("data_type", [DATE, TIMESTAMP], ids=str)
    def test_round_trip_under_every_scheme(self, data_type, scheme, shape):
        values = _SHAPES[shape](_TEMPORAL[data_type])
        present = [v for v in values if v is not None]
        if scheme not in (None, PLAIN) and not present:
            # Nothing present: the NULLs tag alone.
            with pytest.raises(CompressionError):
                scheme.encode(values, data_type)
            return
        if scheme is None:
            scheme = choose_scheme(values, data_type)
        encoded = scheme.encode(values, data_type)
        assert len(encoded) == len(values)
        assert list(map(repr, _decode_list(encoded))) == list(
            map(repr, values)
        )
        if present:
            # The type's own array (NULLs as validity), and no pickle.
            assert encoded.decode().data.dtype == _ARRAY_DTYPE[data_type]
        part = ColumnarPartition.from_columns(
            Schema.of(("c", data_type)), [values]
        )
        assert [repr(row[0]) for row in part.iter_rows()] == list(
            map(repr, values)
        )
        stats = part.stats.column("c")
        assert (stats.minimum, stats.maximum) == (
            (min(present), max(present)) if present else (None, None)
        )

    def test_plain_takes_four_bytes_a_day_eight_a_microsecond(self):
        for data_type, width in ((DATE, 4), (TIMESTAMP, 8)):
            values = _TEMPORAL[data_type]
            encoded = PLAIN.encode(values, data_type)
            assert encoded.compressed_bytes == 1 + width * len(values)
            # ... and the writer never stores more than that.
            chosen = choose_scheme(values, data_type).encode(values, data_type)
            assert chosen.compressed_bytes <= encoded.compressed_bytes
        assert choose_scheme(_TEMPORAL[TIMESTAMP], TIMESTAMP) is PLAIN

    def test_numeric_route(self):
        days = [date(1995, 1, 1 + i % 28) for i in range(200)]
        runs = [date(1995, 1, 1 + i // 50) for i in range(200)]
        assert choose_scheme(runs, DATE) is RLE
        # 28 days in 5 bits a row beat 200 one-byte codes.
        assert choose_scheme(days, DATE) is BITPACK
        assert choose_scheme(sorted(days), DATE) is BITPACK
        # Two days far apart, alternating: no runs, a wide range.
        spread = [date(1995, 1, 1), date(2400, 1, 1)] * 100
        assert choose_scheme(spread, DATE) is DICTIONARY
        entries = DICTIONARY.encode(days, DATE).decode().dictionary
        assert entries.data.dtype == "datetime64[D]" and len(entries) == 28

    def test_no_pickle_for_null_free_columns(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a DATE column was pickled")

        monkeypatch.setattr(pickle, "dumps", refuse)
        for data_type, values in _TEMPORAL.items():
            for shape in ("no NULL", "runs", "repeats", "empty"):
                column = _SHAPES[shape](values)
                choose_scheme(column, data_type).encode(column, data_type)

    def test_a_date_subclass_keeps_the_column_a_list(self):
        values = [_Day(2000, 1, 1), date(2000, 1, 2), date(2000, 1, 3)]
        encoded = choose_scheme(values, DATE).encode(values, DATE)
        decoded = encoded.decode()
        assert not decoded.is_array
        assert list(map(type, decoded.data)) == [_Day, date, date]
        assert decoded.data == values
        # ... as a datetime does in a DATE column, and a zone anywhere.
        from datetime import timezone

        for data_type, odd in (
            (DATE, datetime(2000, 1, 1, 5)),
            (TIMESTAMP, datetime(2000, 1, 1, tzinfo=timezone.utc)),
            (TIMESTAMP, datetime(2000, 1, 1, fold=1)),
        ):
            column = [odd] * 3
            encoded = choose_scheme(column, data_type).encode(
                column, data_type
            )
            assert list(map(repr, _decode_list(encoded))) == list(
                map(repr, column)
            )
