"""The column format (DESIGN §16-17): ``decode(encode(b)) == b`` and
``encoded_size`` equals ``len(encode(bucket))`` for every bucket, for
every DataType, NULLs, empty batches, coded vectors, ints at each width
boundary and beyond int64, NaN / -0.0 and ARRAY / MAP object columns;
and every DataType round-trips under every encoding the writer can be
forced to."""

from __future__ import annotations

import math
import struct
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.analysis import ColumnAnalysis
from repro.columnar.batch import CodedVector, ColumnBatch, Vector
from repro.columnar.serde import (
    SCHEMES,
    BatchSerde,
    read_column,
    scheme_of,
    write_column,
)
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
    StructType,
)
from repro.errors import CompressionError

SERDE = BatchSerde()

_BOUNDARY_INTS = [
    0, 1, -1, 127, 128, -128, -129, 2 ** 15 - 1, 2 ** 15, -(2 ** 15),
    -(2 ** 15) - 1, 2 ** 31 - 1, 2 ** 31, -(2 ** 31), -(2 ** 31) - 1,
    2 ** 63 - 1, -(2 ** 63),
]

#: One strategy per DataType (and the untyped leftovers), values only.
_VALUES = {
    "int": st.one_of(
        st.sampled_from(_BOUNDARY_INTS), st.integers(-300, 300)
    ),
    "bigint": st.integers(-(2 ** 63), 2 ** 63 - 1),
    "beyond_int64": st.sampled_from([2 ** 63, -(2 ** 63) - 1, 2 ** 70, 5]),
    "double": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, math.nan, 1e300]),
    ),
    "boolean": st.booleans(),
    "string": st.one_of(
        st.sampled_from(["", "a", "ab", "é", "日本", "MAIL", "SHIP"]),
        st.text(max_size=5),
    ),
    "date": st.dates(),
    "timestamp": st.datetimes().map(lambda stamp: stamp.replace(fold=0)),
    "array": st.lists(st.integers(-3, 3), max_size=3),
    "map": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    "mixed": st.one_of(
        st.integers(-2, 2), st.floats(allow_nan=False), st.booleans(),
        st.text(max_size=2), st.tuples(st.integers(), st.text(max_size=1)),
    ),
}


def _as_arrays(column: list):
    """The same values the way a kernel would hold them, if it can."""
    kinds = {type(v) for v in column}
    if kinds == {int} and all(-(2 ** 31) <= v < 2 ** 31 for v in column):
        return np.array(column, dtype=np.int32)
    return Vector.from_values(column)


def _as_coded(column: list):
    """The same values as codes + dictionary (entries may repeat, like a
    computed dictionary's)."""
    def identity(value):
        # (NaNs of different payloads all print as ``nan``.)
        bits = struct.pack("d", value) if isinstance(value, float) else None
        return type(value), repr(value), bits

    positions: dict = {}
    entries: list = []
    for value in column:
        if identity(value) not in positions:
            positions[identity(value)] = len(entries)
            entries.append(value)
    if not entries:
        return Vector.from_values(column)
    codes = np.array(
        [positions[identity(v)] for v in column], dtype=np.int64
    )
    return CodedVector(codes, Vector.from_values(entries + entries[:1]))


@st.composite
def _batches(draw):
    rows = draw(st.integers(0, 40))
    columns = []
    pickled = False
    for __ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(sorted(_VALUES)))
        pickled |= kind in ("array", "map", "mixed", "beyond_int64")
        values = _VALUES[kind]
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        columns.append(draw(st.lists(values, min_size=rows, max_size=rows)))
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=5)))
    return rows, columns, np.array([0, *cuts, rows]), pickled


def _reprs(rows) -> list:
    return [repr(row) for row in rows]


def _batch_of(columns, rows, form) -> ColumnBatch:
    if form == "lists":
        return ColumnBatch([Vector(list(c)) for c in columns], rows)
    if form == "typed":
        return ColumnBatch.from_columns(columns, rows)
    if form == "arrays":
        entries = [_as_arrays(c) for c in columns]
    else:
        entries = [_as_coded(c) for c in columns]
    return ColumnBatch(
        [e if isinstance(e, Vector) else Vector(e) for e in entries], rows
    )


@settings(max_examples=400, deadline=None)
@given(case=_batches())
def test_round_trip_and_bucket_sizes(case):
    rows, columns, offsets, pickled = case
    want = _reprs(zip(*columns)) if columns else _reprs([()] * rows)
    payloads = set()
    for form in ("lists", "typed", "arrays", "coded"):
        batch = _batch_of(columns, rows, form)
        assert _reprs(batch.materialize_rows()) == want
        payload = SERDE.encode(batch)
        payloads.add(payload)
        assert SERDE.encoded_size(batch) == [len(payload)]
        if rows:  # an empty batch is b"": its width is not recorded
            decoded = SERDE.decode(payload)
            assert _reprs(decoded.materialize_rows()) == want
        sizes = SERDE.encoded_size(batch, offsets)
        for size, start, stop in zip(sizes, offsets, offsets[1:]):
            assert size == len(SERDE.encode(batch.slice(start, stop)))
            if start == stop:
                assert size == 0
    # The bytes are a function of the values, not of their container
    # (a pickle, though, abbreviates an object it has met before).
    assert pickled or len(payloads) == 1


def _column_bytes(values, rows=None) -> int:
    """Bytes of a one-column batch less the 6-byte header and the tag."""
    batch = ColumnBatch.from_columns([values], rows)
    return SERDE.encoded_size(batch)[0] - 7


#: Eight distinct values spread over the whole of a width, so that no
#: run, repeat or narrow range makes a compressed encoding cheaper.
_SPREAD = {
    2: [128, -(2 ** 15), 2 ** 15 - 1, 300, -300, 5000, -5000, 20000],
    4: [2 ** 15, -(2 ** 31), 2 ** 31 - 1, 7, -70000, 2 ** 20, 9, -3],
    8: [2 ** 31, -(2 ** 63), 2 ** 63 - 1, 7, -(2 ** 40), 2 ** 50, 9, -3],
}


@pytest.mark.parametrize(
    "values,want",
    [
        ([127, -128] * 4, 8 * 1),
        (_SPREAD[2], 8 * 2),
        ([-129] + _SPREAD[2][1:], 8 * 2),
        (_SPREAD[4], 8 * 4),
        (_SPREAD[8], 8 * 8),
        ([0.5 + i for i in range(8)], 8 * 8),
        ([True, False] * 4, 1),
        ([True] * 9, 2),
        # Dates: bit width 1, the 22-bit offsets from the earliest day
        # (date.min .. date.max), the base as a nested 4-byte day.
        ([date.min, date.max] + [date(2000, 1, i) for i in range(1, 7)],
         1 + 22 + 1 + 4),
        ([datetime.min, datetime.max] + [
            datetime(2000, 1, 1, 1, 2, 3, i) for i in range(6)
        ], 8 * 8),
        (["ab", "é"], 2 * 4 + 2 + 2),
        # Repeats: a code width byte and one code byte a row, then the two
        # entries as a nested string column (tag, end offsets, UTF-8).
        (["a", "b"] * 50, 1 + 100 + 1 + 8 + 2),
        ([None] * 8, 0),
        # NULLs: one validity bit per row beside the payload.
        ([-100, None, 100, None, 50, None, -50, None], 1 + 8),
    ],
)
def test_size_rule_table(values, want):
    assert _column_bytes(values) == want


@pytest.mark.parametrize(
    "values,scheme,want",
    [
        # A run count, the run lengths and the run values, each nested.
        ([7] * 100 + [9] * 100, "rle", 4 + (1 + 2) + (1 + 2)),
        (["MAIL"] * 100, "rle", 4 + (1 + 1) + (1 + 4 + 4)),
        # A bit width, 3-bit offsets from the base, the base nested.
        ([1000 + i % 8 for i in range(80)], "bitpack", 1 + 30 + (1 + 2)),
        # Doubles repeat as a dictionary, compared by their bits.
        ([0.0, -0.0, 1.5, 2.5] * 20, "dictionary", 1 + 80 + (1 + 32)),
    ],
)
def test_compressed_size_rules(values, scheme, want):
    assert _column_bytes(values) == want
    assert scheme_of(write_column(ColumnAnalysis(values))) == scheme


_NAN = float("nan")
#: Per DataType: columns of every shape a loading task meets.
_TYPED = {
    INT: [[7], [1, None, 1, 1, 300, -5], [2 ** 31 - 1, -(2 ** 31)] * 3],
    BIGINT: [
        [2 ** 63 - 1, -(2 ** 63), 0] * 2, [5] * 9 + [None],
        [2 ** 70, 1],  # beyond int64: no array, one pickle
    ],
    DOUBLE: [[-0.0], [0.0, -0.0, _NAN, 1.5, None, _NAN, 0.0], [_NAN] * 4],
    BOOLEAN: [[True], [True, None, False, False, False]],
    STRING: [["x"], ["a", None, "", "é", "a", "a", "日本"]],
    DATE: [[date.max], [date.min, None, date(2000, 1, 1)] * 2],
    TIMESTAMP: [
        [datetime.min],
        [datetime.max, None, datetime(2013, 3, 10, 2, 30)] * 2,
    ],
    ArrayType(element_type=INT): [[[1, 2], None, [], [1, 2]]],
    MapType(key_type=STRING, value_type=INT): [[{"a": 1}, None, {}]],
    StructType(): [[(1, "x"), None, (1, "x")]],
}
_CASES = [
    (data_type, values)
    for data_type, columns in _TYPED.items()
    for values in [[], [None], [None] * 3] + columns
]


def _encodings(data_type, values) -> set:
    """The encodings a column of ``values`` has: the plain one alone when
    nothing is present or it is an object column; no bit packing for a
    type that is no integer, day or microsecond."""
    present = [v for v in values if v is not None]
    if not present or data_type not in (
        INT, BIGINT, DOUBLE, BOOLEAN, STRING, DATE, TIMESTAMP
    ) or 2 ** 70 in present:
        return {"plain"}
    if data_type in (DOUBLE, BOOLEAN, STRING):
        return {"plain", "rle", "dictionary"}
    return set(SCHEMES)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "data_type,values", _CASES,
    ids=[f"{t}-{i}" for i, (t, __) in enumerate(_CASES)],
)
def test_every_type_under_every_encoding(data_type, values, scheme):
    column = ColumnAnalysis(values, data_type)
    if scheme not in _encodings(data_type, values):
        with pytest.raises(CompressionError):
            write_column(column, (scheme,))
        return
    payload = write_column(column, (scheme,))
    assert scheme_of(payload) == scheme
    decoded = read_column(payload, len(values)).to_python_list()
    assert list(map(repr, decoded)) == list(map(repr, values))
    # The writer left free picks the smallest of them.
    assert len(write_column(column)) == min(
        len(write_column(column, (name,)))
        for name in _encodings(data_type, values)
    )
    # ... and an exchange weighs each bucket what it encodes to.
    batch = ColumnBatch.from_columns([values], len(values))
    offsets = np.array([0, len(values) // 2, len(values)])
    for size, start, stop in zip(
        SERDE.encoded_size(batch, offsets), offsets, offsets[1:]
    ):
        assert size == len(SERDE.encode(batch.slice(start, stop)))


def test_object_column_is_its_pickle():
    import pickle

    values = [[1, 2], {"a": 1}, None]
    assert _column_bytes(values) == 4 + len(pickle.dumps(values, protocol=4))
    # Ints beyond int64 have no array form.
    big = [2 ** 70, 1]
    assert _column_bytes(big) == 4 + len(pickle.dumps(big, protocol=4))


def test_datetimes_with_a_zone_or_a_fold_stay_objects():
    from datetime import timezone

    for stamp in (
        datetime(2000, 1, 1, fold=1),
        datetime(2000, 1, 1, tzinfo=timezone.utc),
    ):
        batch = ColumnBatch.from_columns([[stamp, None]])
        decoded = SERDE.decode(SERDE.encode(batch))
        assert _reprs(decoded.materialize_rows()) == _reprs(
            [(stamp,), (None,)]
        )


class _Day(date):
    """A date subclass: a value no datetime64 array gives back."""


_EDGE_DATES = [date.min, date(1960, 2, 29), date(1969, 12, 31), date.max]
_EDGE_STAMPS = [
    datetime.min, datetime(1969, 12, 31, 23, 59, 59, 999999),
    datetime(2013, 3, 10, 2, 30), datetime.max,
]


@pytest.mark.parametrize(
    "values,dtype",
    [
        (_EDGE_DATES, "datetime64[D]"),
        ([None] + _EDGE_DATES + [None], "datetime64[D]"),
        (_EDGE_STAMPS, "datetime64[us]"),
        ([None] + _EDGE_STAMPS + [None], "datetime64[us]"),
        ([None] * 4, None),
        ([_Day(2000, 1, 1), date(2000, 1, 2)], None),
        ([_Day(2000, 1, 1), None], None),
    ],
)
def test_dates_and_timestamps_are_datetime64_columns(values, dtype):
    """... from ``from_values`` through the wire and back, the epoch in
    their NULL slots; a subclass (or nothing at all) stays a list."""
    vector = Vector.from_values(values)
    assert vector.is_array == (dtype is not None)
    if dtype is not None:
        assert vector.data.dtype == dtype
    batch = ColumnBatch([vector], len(values))
    payload = SERDE.encode(batch)
    assert SERDE.encoded_size(batch) == [len(payload)]
    assert payload == SERDE.encode(ColumnBatch([Vector(values)], len(values)))
    decoded = SERDE.decode(payload)
    assert _reprs(decoded.materialize_rows()) == _reprs(zip(values))
    if dtype is not None:
        assert decoded.vector(0).data.dtype == dtype
        # Four bytes a day, eight a microsecond, or a packing of them.
        width = 4 if dtype == "datetime64[D]" else 8
        validity = (len(values) + 7) // 8 if None in values else 0
        assert len(payload) <= 6 + 1 + validity + width * len(values)


def test_bucket_of_a_mixed_column_holding_one_type_is_typed():
    batch = ColumnBatch.from_columns([[1, 2, 3, "x"]])
    first, second = SERDE.encoded_size(batch, np.array([0, 3, 4]))
    assert first == 6 + 1 + 3  # three int8s
    assert second == 6 + 1 + 4 + 1  # one string


def test_null_slots_of_an_array_never_leak_their_garbage():
    data = np.array([5, 99999, 7], dtype=np.int64)
    valid = np.array([True, False, True])
    batch = ColumnBatch([Vector(data, valid)], 3)
    other = ColumnBatch([Vector([5, None, 7])], 3)
    assert SERDE.encode(batch) == SERDE.encode(other)
    assert SERDE.decode(SERDE.encode(batch)).materialize_rows() == [
        (5,), (None,), (7,)
    ]


def test_empty_batch_is_empty_string():
    assert SERDE.encode(ColumnBatch.from_columns([[], []], 0)) == b""
    assert SERDE.decode(b"").num_rows == 0


def test_trailing_bytes_are_rejected():
    from repro.errors import StorageError

    payload = SERDE.encode(ColumnBatch.from_columns([[1, 2]]))
    with pytest.raises(StorageError):
        SERDE.decode(payload + b"\x00")
    assert struct.unpack_from("<IH", payload) == (2, 1)
