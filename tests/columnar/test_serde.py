"""Text and binary row serdes."""

from datetime import date, datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.serde import BinarySerde, TextSerde
from repro.datatypes import (
    ArrayType,
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    BIGINT,
    MapType,
    STRING,
    TIMESTAMP,
    Schema,
)
from repro.errors import AnalysisError, StorageError

FULL_SCHEMA = Schema.of(
    ("i", INT),
    ("l", BIGINT),
    ("d", DOUBLE),
    ("s", STRING),
    ("b", BOOLEAN),
    ("dt", DATE),
    ("arr", ArrayType(element_type=INT)),
    ("m", MapType(key_type=STRING, value_type=INT)),
)

SAMPLE_ROWS = [
    (1, 2**40, 3.5, "hello", True, date(2000, 1, 15), [1, 2], {"k": 1}),
    (-7, 0, -0.25, "", False, date(1999, 12, 31), [], {}),
    (None, None, None, None, None, None, None, None),
]


class TestTextSerde:
    def test_roundtrip_full_schema(self):
        serde = TextSerde(FULL_SCHEMA)
        assert serde.decode(serde.encode(SAMPLE_ROWS)) == SAMPLE_ROWS

    def test_empty(self):
        serde = TextSerde(FULL_SCHEMA)
        assert serde.decode(serde.encode([])) == []

    def test_width_mismatch_rejected(self):
        narrow = Schema.of(("a", INT), ("b", INT))
        serde = TextSerde(narrow)
        payload = serde.encode([(1, 2)])
        wrong = TextSerde(Schema.of(("a", INT)))
        with pytest.raises(StorageError):
            wrong.decode(payload)

    def test_boolean_tokens(self):
        serde = TextSerde(Schema.of(("b", BOOLEAN)))
        text = serde.encode([(True,), (False,)]).decode("utf-8")
        assert "true" in text and "false" in text

    def test_timestamp_roundtrip(self):
        serde = TextSerde(Schema.of(("t", TIMESTAMP)))
        rows = [(datetime(2012, 11, 27, 13, 45, 30),)]
        assert serde.decode(serde.encode(rows)) == rows


def _reference_text(rows) -> bytes:
    """The value-at-a-time format the column-wise encoder must reproduce
    byte for byte (stored bytes feed the cost model)."""

    def fmt(value):
        if value is None:
            return "\\N"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (date, datetime)):
            return value.isoformat()
        if isinstance(value, (list, tuple)):
            return "[" + ",".join(map(fmt, value)) + "]"
        if isinstance(value, dict):
            return "{" + ",".join(
                f"{fmt(k)}:{fmt(v)}" for k, v in value.items()
            ) + "}"
        return str(value)

    return "".join(
        "\x01".join(map(fmt, row)) + "\n" for row in rows
    ).encode("utf-8")


class TestTextSerdeColumnWise:
    """Encode/decode pick one converter per column; only NULL-bearing,
    mixed-type and ARRAY/MAP columns go value by value."""

    TYPED = Schema.of(
        ("i", INT), ("l", BIGINT), ("d", DOUBLE), ("s", STRING),
        ("b", BOOLEAN), ("dt", DATE), ("ts", TIMESTAMP),
    )
    TYPED_ROWS = [
        (1, 2**40, 1e22, "a", True, date(2000, 1, 15),
         datetime(2012, 11, 27, 13, 45, 30)),
        (-7, -1, -0.0, "", False, date(1999, 12, 31),
         datetime(1999, 1, 1, 0, 0, 0, 250)),
        (0, 0, float("inf"), "\\n", True, date(1, 1, 1),
         datetime(2038, 1, 19, 3, 14, 7)),
    ]

    def _roundtrip(self, schema, rows):
        serde = TextSerde(schema)
        payload = serde.encode(rows)
        assert payload == _reference_text(rows)
        assert serde.decode(payload) == rows
        columns = serde.decode_columns(payload)
        assert len(columns) == len(schema)
        assert list(zip(*columns)) == rows
        return payload

    def test_null_free_columns_of_every_scalar_type(self):
        self._roundtrip(self.TYPED, self.TYPED_ROWS)

    def test_nulls_in_every_type(self):
        nulls = (None,) * len(self.TYPED)
        rows = [self.TYPED_ROWS[0], nulls, self.TYPED_ROWS[1], nulls]
        self._roundtrip(self.TYPED, rows)
        self._roundtrip(FULL_SCHEMA, SAMPLE_ROWS)
        # One NULL per column in turn: each column takes the fallback
        # alone while its neighbours stay on the mapped converter.
        for index in range(len(self.TYPED)):
            holed = list(self.TYPED_ROWS[1])
            holed[index] = None
            self._roundtrip(
                self.TYPED, [self.TYPED_ROWS[0], tuple(holed)]
            )

    def test_carriage_return_and_delimiter_neighbours_in_strings(self):
        schema = Schema.of(("a", STRING), ("b", STRING))
        rows = [
            ("line\rbreak", "\x00\x02"),
            ("\r", "tab\there"),
            ("\x02x\x00", "\x0b\x0c\x1c\x1d\x1e\x85\u2028"),
        ]
        self._roundtrip(schema, rows)

    def test_array_and_map_columns_take_the_fallback(self):
        schema = Schema.of(
            ("k", INT),
            ("arr", ArrayType(element_type=INT)),
            ("m", MapType(key_type=STRING, value_type=INT)),
        )
        rows = [(1, [1, 2, 3], {"a": 1, "b": 2}), (2, [], {}), (3, None, None)]
        self._roundtrip(schema, rows)

    def test_bools_inside_an_int_column_keep_their_tokens(self):
        schema = Schema.of(("i", INT))
        payload = TextSerde(schema).encode([(1,), (True,), (0,)])
        assert payload == _reference_text([(1,), (True,), (0,)])

    def test_empty_payload(self):
        serde = TextSerde(self.TYPED)
        assert serde.encode([]) == b""
        assert serde.decode(b"") == []
        assert serde.decode_columns(b"") == [[] for _ in self.TYPED.fields]

    def test_a_row_of_one_empty_field_is_a_row(self):
        """Rows are counted by the newlines that end them: one row of a
        single empty string is b"\\n", not an empty payload."""
        schema = Schema.of(("s", STRING))
        assert self._roundtrip(schema, [("",)]) == b"\n"
        self._roundtrip(schema, [("",), ("a",), ("",), ("",)])
        # A last row without its newline is still a row.
        assert TextSerde(schema).decode(b"a\n\nb") == [("a",), ("",), ("b",)]

    def test_field_count_error_names_the_first_bad_row(self):
        serde = TextSerde(Schema.of(("a", INT), ("b", INT)))
        payload = b"1\x012\n3\x014\x015\n6\n"
        for decode in (serde.decode, serde.decode_columns):
            with pytest.raises(StorageError) as error:
                decode(payload)
            assert str(error.value) == "text row has 3 fields, schema has 2"

    def test_ragged_rows_are_rejected_not_truncated(self):
        serde = TextSerde(Schema.of(("a", INT), ("b", INT)))
        with pytest.raises(AnalysisError):
            serde.encode([(1, 2), (3, 4, 5)])

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
                st.one_of(st.none(), st.floats(allow_nan=False)),
                st.one_of(
                    st.none(),
                    st.text(
                        alphabet=st.characters(
                            blacklist_characters="\n\x01",
                            blacklist_categories=("Cs",),
                        ),
                        max_size=8,
                    ).filter(lambda text: text != "\\N"),
                ),
                st.one_of(st.none(), st.booleans()),
                st.one_of(st.none(), st.dates()),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_drawn_rows_match_the_reference_bytes(self, rows):
        schema = Schema.of(
            ("i", INT), ("d", DOUBLE), ("s", STRING), ("b", BOOLEAN),
            ("dt", DATE),
        )
        self._roundtrip(schema, rows)


class TestBinarySerde:
    def test_roundtrip_full_schema(self):
        serde = BinarySerde(FULL_SCHEMA)
        assert serde.decode(serde.encode(SAMPLE_ROWS)) == SAMPLE_ROWS

    def test_empty(self):
        serde = BinarySerde(FULL_SCHEMA)
        assert serde.decode(serde.encode([])) == []

    def test_timestamp_is_wall_clock_time_whatever_the_process_zone(
        self, monkeypatch
    ):
        """Regression: TIMESTAMP went through ``timestamp()`` /
        ``fromtimestamp()`` — float seconds in the *process's* zone — so
        under ``TZ=America/Los_Angeles`` 02:30 on the 2013 DST-gap day
        decoded as 03:30, and ``datetime.min`` / ``datetime.max`` raised
        ValueError.  It is int64 microseconds since the naive epoch."""
        import time

        monkeypatch.setenv("TZ", "America/Los_Angeles")
        time.tzset()
        try:
            schema = Schema.of(("ts", TIMESTAMP))
            rows = [
                (datetime(2013, 3, 10, 2, 30),),  # in the DST gap
                (datetime(2013, 11, 3, 1, 30),),  # ambiguous: fall back
                (datetime(1969, 12, 31, 23, 59, 59, 999999),),
                (datetime(1901, 1, 1, 0, 0, 0, 1),),
                (datetime.min,),
                (datetime.max,),
                (None,),
            ]
            serde = BinarySerde(schema)
            payload = serde.encode(rows)
            assert serde.decode(payload) == rows
            assert len(payload) == 4 + 6 * 9 + 1
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_binary_smaller_than_text_for_numbers(self):
        schema = Schema.of(("a", DOUBLE), ("b", DOUBLE), ("c", BIGINT))
        rows = [
            (1234567.8912345, 2345678.9123456, 123456789012345)
            for __ in range(100)
        ]
        text_size = len(TextSerde(schema).encode(rows))
        binary_size = len(BinarySerde(schema).encode(rows))
        assert binary_size < text_size


class TestPropertyRoundtrips:
    simple_schema = Schema.of(("i", INT), ("s", STRING), ("d", DOUBLE))

    @given(
        st.lists(
            st.tuples(
                st.integers(-2**31 + 1, 2**31 - 1),
                st.text(
                    alphabet=st.characters(
                        blacklist_characters="\x01\n", blacklist_categories=("Cs",)
                    ),
                    max_size=30,
                ),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_text_roundtrip(self, rows):
        serde = TextSerde(self.simple_schema)
        decoded = serde.decode(serde.encode(rows))
        assert len(decoded) == len(rows)
        for got, want in zip(decoded, rows):
            assert got[0] == want[0]
            assert got[1] == want[1]
            assert got[2] == pytest.approx(want[2], nan_ok=True)

    @given(
        st.lists(
            st.tuples(
                st.integers(-2**31 + 1, 2**31 - 1),
                st.text(max_size=30),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_binary_roundtrip(self, rows):
        serde = BinarySerde(self.simple_schema)
        assert serde.decode(serde.encode(rows)) == rows
