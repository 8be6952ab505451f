"""The batch wire format (DESIGN §17): ``decode(encode(b)) == b`` and
``encoded_size`` equals ``len(encode(bucket))`` for every bucket, for
every DataType, NULLs, empty batches, coded vectors, ints at each width
boundary and beyond int64, NaN / -0.0 and ARRAY / MAP object columns."""

from __future__ import annotations

import math
import struct
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.batch import CodedVector, ColumnBatch, Vector
from repro.columnar.serde import BatchSerde

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


@pytest.mark.parametrize(
    "values,want",
    [
        ([127, -128] * 4, 8 * 1),
        ([128] * 8, 8 * 2),
        ([-129] * 8, 8 * 2),
        ([2 ** 15] * 8, 8 * 4),
        ([2 ** 31] * 8, 8 * 8),
        ([0.5] * 8, 8 * 8),
        ([True, False] * 4, 1),
        ([True] * 9, 2),
        ([date(2000, 1, 1)] * 8, 8 * 4),
        ([datetime(2000, 1, 1, 1, 2, 3, 4)] * 8, 8 * 8),
        (["ab", "é"], 2 * 4 + 2 + 2),
        # Repeats: 4-byte count + one entry (4 + 4) + one code byte a row.
        (["MAIL"] * 100, 4 + 8 + 100),
        ([None] * 8, 0),
        # NULLs: one validity bit per row beside the payload.
        ([1, None] * 4, 1 + 8),
    ],
)
def test_size_rule_table(values, want):
    assert _column_bytes(values) == want


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
        width = 4 if dtype == "datetime64[D]" else 8
        validity = (len(values) + 7) // 8 if None in values else 0
        assert len(payload) == 6 + 1 + validity + width * len(values)


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
