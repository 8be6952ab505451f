"""Row serdes (text and binary wire formats) and the batch serde.

The row serdes back the HDFS-like store and the Hadoop ML baselines: the
paper's Figures 11-12 compare Hadoop reading "text" records against a
compact "binary" format, which differ in size and in per-record decode
cost.  :class:`BatchSerde` is the columnar wire format of everything that
leaves a task as a :class:`~repro.columnar.batch.ColumnBatch` — shuffle
buckets, spilled runs, a join's build side — and the one statement of
what a column of it weighs (DESIGN §17).
"""

from __future__ import annotations

import pickle
import struct
from datetime import date, datetime
from itertools import repeat
from typing import Any, Optional, Sequence

import numpy as np

from repro.columnar.batch import CodedVector, ColumnBatch, Vector, not_null
from repro.columnar.table import transpose_rows
from repro.datatypes import (
    DAYS,
    MICROS,
    ArrayType,
    BooleanType,
    DataType,
    DateType,
    DoubleType,
    IntegerType,
    LongType,
    MapType,
    Schema,
    StringType,
    StructType,
    TimestampType,
    datetime64_array,
    time_number,
)
from repro.errors import AnalysisError, StorageError

_NULL_TOKEN = "\\N"

#: Text of one non-NULL value, by its Python type.
_TEXT_FORMATTERS = {
    int: str,
    float: str,
    str: str,
    bool: ("false", "true").__getitem__,
    datetime: datetime.isoformat,
}
#: Value of one non-NULL text field, by its column type.
_TEXT_PARSERS = {
    IntegerType: int,
    LongType: int,
    DoubleType: float,
    BooleanType: "true".__eq__,
    DateType: date.fromisoformat,
    TimestampType: datetime.fromisoformat,
    StringType: str,
}


class TextSerde:
    """Delimited text rows (Hive's default storage format).

    Encoding and decoding work a column at a time: the converter is
    picked once per column (from the values' Python type when writing,
    from the schema when reading) and mapped over it; only columns that
    carry NULLs, mix types or hold ARRAY/MAP values go value by value.
    """

    def __init__(self, schema: Schema, delimiter: str = "\x01"):
        self.schema = schema
        self.delimiter = delimiter

    def _format_value(self, value: Any) -> str:
        if value is None:
            return _NULL_TOKEN
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (date, datetime)):
            return value.isoformat()
        if isinstance(value, (list, tuple)):
            return "[" + ",".join(self._format_value(v) for v in value) + "]"
        if isinstance(value, dict):
            inner = ",".join(
                f"{self._format_value(k)}:{self._format_value(v)}"
                for k, v in value.items()
            )
            return "{" + inner + "}"
        return str(value)

    def _format_column(self, values: tuple) -> list[str]:
        kinds = set(map(type, values))
        if kinds == {date}:
            # One call prints the column, as ``date.isoformat`` would.
            return np.datetime_as_string(
                datetime64_array(values, date)
            ).tolist()
        if len(kinds) == 1:
            formatter = _TEXT_FORMATTERS.get(kinds.pop())
            if formatter is not None:
                return list(map(formatter, values))
        return [self._format_value(value) for value in values]

    def _parse_value(self, text: str, data_type: DataType) -> Any:
        if text == _NULL_TOKEN:
            return None
        parser = _TEXT_PARSERS.get(type(data_type))
        if parser is not None:
            return parser(text)
        if isinstance(data_type, ArrayType):
            body = text[1:-1]
            if not body:
                return []
            return [
                self._parse_value(item, data_type.element_type)
                for item in body.split(",")
            ]
        if isinstance(data_type, MapType):
            body = text[1:-1]
            if not body:
                return {}
            out = {}
            for entry in body.split(","):
                key_text, __, value_text = entry.partition(":")
                out[self._parse_value(key_text, data_type.key_type)] = (
                    self._parse_value(value_text, data_type.value_type)
                )
            return out
        raise StorageError(f"text serde cannot parse type {data_type}")

    def _parse_column(self, texts: tuple, data_type: DataType) -> list:
        parser = _TEXT_PARSERS.get(type(data_type))
        if parser is None or _NULL_TOKEN in texts:
            return [self._parse_value(text, data_type) for text in texts]
        return list(map(parser, texts))

    def encode(self, rows: list[tuple]) -> bytes:
        if not rows:
            return b""
        columns = transpose_rows(rows, len(self.schema))
        lines = map(
            self.delimiter.join, zip(*map(self._format_column, columns))
        )
        return ("\n".join(lines) + "\n").encode("utf-8")

    def decode_columns(self, payload: bytes) -> list[list]:
        """The payload's rows as one list of values per schema field."""
        # A row is what its "\n" ends (the last may be unended), so one
        # row of one empty field is b"\n".  Split on the record delimiter
        # only; values may hold characters like \r that splitlines takes
        # for breaks.
        lines = payload.decode("utf-8").split("\n")
        if not lines[-1]:
            lines.pop()
        rows = list(map(str.split, lines, repeat(self.delimiter)))
        width = len(self.schema)
        try:
            columns = transpose_rows(rows, width)
        except AnalysisError:
            bad = next(len(row) for row in rows if len(row) != width)
            raise StorageError(
                f"text row has {bad} fields, schema has {width}"
            ) from None
        return [
            self._parse_column(texts, field_.data_type)
            for texts, field_ in zip(columns, self.schema.fields)
        ]

    def decode(self, payload: bytes) -> list[tuple]:
        return list(zip(*self.decode_columns(payload)))


class BinarySerde:
    """Compact binary rows: fixed-width primitives, length-prefixed strings,
    pickled complex values."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def _encode_value(self, value: Any, data_type: DataType, out: bytearray) -> None:
        if value is None:
            out.append(0)
            return
        out.append(1)
        if isinstance(data_type, IntegerType):
            out.extend(struct.pack("<i", value))
        elif isinstance(data_type, LongType):
            out.extend(struct.pack("<q", value))
        elif isinstance(data_type, DoubleType):
            out.extend(struct.pack("<d", value))
        elif isinstance(data_type, BooleanType):
            out.append(1 if value else 0)
        elif isinstance(data_type, DateType):
            out.extend(struct.pack("<i", value.toordinal()))
        elif isinstance(data_type, TimestampType):
            # Microseconds of the naive wall-clock time, as BatchSerde
            # writes them: ``timestamp()`` would read it in the process's
            # time zone and round it to a float.
            out.extend(struct.pack("<q", time_number(value)))
        elif isinstance(data_type, StringType):
            blob = value.encode("utf-8")
            out.extend(struct.pack("<I", len(blob)))
            out.extend(blob)
        else:
            blob = pickle.dumps(value, protocol=4)
            out.extend(struct.pack("<I", len(blob)))
            out.extend(blob)

    def _decode_value(
        self, payload: bytes, offset: int, data_type: DataType
    ) -> tuple[Any, int]:
        present = payload[offset]
        offset += 1
        if not present:
            return None, offset
        if isinstance(data_type, IntegerType):
            return struct.unpack_from("<i", payload, offset)[0], offset + 4
        if isinstance(data_type, LongType):
            return struct.unpack_from("<q", payload, offset)[0], offset + 8
        if isinstance(data_type, DoubleType):
            return struct.unpack_from("<d", payload, offset)[0], offset + 8
        if isinstance(data_type, BooleanType):
            return bool(payload[offset]), offset + 1
        if isinstance(data_type, DateType):
            ordinal = struct.unpack_from("<i", payload, offset)[0]
            return date.fromordinal(ordinal), offset + 4
        if isinstance(data_type, TimestampType):
            micros = struct.unpack_from("<q", payload, offset)[0]
            return np.datetime64(micros, "us").item(), offset + 8
        if isinstance(data_type, StringType):
            length = struct.unpack_from("<I", payload, offset)[0]
            offset += 4
            text = payload[offset : offset + length].decode("utf-8")
            return text, offset + length
        length = struct.unpack_from("<I", payload, offset)[0]
        offset += 4
        value = pickle.loads(payload[offset : offset + length])
        return value, offset + length

    def encode(self, rows: list[tuple]) -> bytes:
        out = bytearray()
        out.extend(struct.pack("<I", len(rows)))
        for row in rows:
            for value, field_ in zip(row, self.schema.fields):
                self._encode_value(value, field_.data_type, out)
        return bytes(out)

    def decode(self, payload: bytes) -> list[tuple]:
        (num_rows,) = struct.unpack_from("<I", payload, 0)
        offset = 4
        rows = []
        for __ in range(num_rows):
            values = []
            for field_ in self.schema.fields:
                value, offset = self._decode_value(
                    payload, offset, field_.data_type
                )
                values.append(value)
            rows.append(tuple(values))
        return rows

    def decode_columns(self, payload: bytes) -> list[tuple]:
        """The payload's rows as one sequence of values per schema field
        (the format is row-major: decode, then transpose)."""
        return transpose_rows(self.decode(payload), len(self.schema))


class SpillSerde:
    """Schema-less length-framed records: the spilled-run wire format.

    Spilled execution state — hash-aggregate ``(key, accumulators)``
    items, sort-run ``(key, row)`` pairs — has no table schema (the
    accumulators are arbitrary Python values), so unlike
    :class:`TextSerde`/:class:`BinarySerde` this serde frames a pickled
    record list with its byte length.  The frame length is what the
    spill path charges as simulated-disk write/read volume, so the cost
    model sees real serialized bytes, not heap estimates.
    """

    def encode(self, records: list) -> bytes:
        blob = pickle.dumps(list(records), protocol=4)
        return struct.pack("<I", len(blob)) + blob

    def decode(self, payload: bytes) -> list:
        (length,) = struct.unpack_from("<I", payload, 0)
        if len(payload) < 4 + length:
            raise StorageError(
                f"truncated spill run: framed {length} bytes, "
                f"payload has {len(payload) - 4}"
            )
        return pickle.loads(payload[4 : 4 + length])


# ---------------------------------------------------------------------------
# The batch wire format
# ---------------------------------------------------------------------------

#: Column tags.  A column is ``tag [validity bits] payload``; the high bit
#: of the tag says a validity bitmap (one bit per row) follows it.
(
    _NULLS,  # every row NULL: no payload
    _INT8, _INT16, _INT32, _INT64,  # the narrowest holding min..max
    _FLOAT,  # 8 bytes per row
    _BOOL,  # one bit per row
    _DATE,  # 4-byte days since the epoch
    _TIMESTAMP,  # 8-byte microseconds since the epoch
    _STRING,  # 4-byte end offsets, then UTF-8
    _DICTIONARY,  # entry count, the entries as _STRING, 1/2/4-byte codes
    _OBJECT,  # 4-byte length, then the column's pickle
) = range(12)
_NULLABLE = 0x80
_INT = _INT8  # an integer column before its width is chosen
_INT_DTYPES = {_INT8: "<i1", _INT16: "<i2", _INT32: "<i4", _INT64: "<i8"}
_INT_TAGS = {1: _INT8, 2: _INT16, 4: _INT32, 8: _INT64}
#: Payload bytes per row of the fixed-width kinds.
_WIDTHS = {
    _NULLS: 0, _INT8: 1, _INT16: 2, _INT32: 4, _INT64: 8,
    _FLOAT: 8, _DATE: 4, _TIMESTAMP: 8,
}
_HEADER = struct.Struct("<IH")  # rows, columns
_FIRST_ROW = np.zeros(1, dtype=np.int64)  # where a whole batch starts
_LENGTH = struct.Struct("<I")


def _bits(counts):
    """Bytes of a bitmap with one bit per row."""
    return (counts + 7) // 8


#: A signed width of w bytes holds low..high when max(high, -low - 1) is
#: below 2**(8w - 1): the first width whose limit exceeds it.
_INT_LIMITS = np.array([2 ** 7, 2 ** 15, 2 ** 31])
_INT_WIDTHS = np.array([1, 2, 4, 8])
_CODE_LIMITS = np.array([2 ** 8, 2 ** 16])
_CODE_WIDTHS = np.array([1, 2, 4])


def _int_widths(low, high):
    """Bytes of the narrowest signed width holding ``low..high``."""
    reach = np.maximum(high, -1 - low)
    return _INT_WIDTHS[np.searchsorted(_INT_LIMITS, reach, side="right")]


def _code_width(distinct):
    """Bytes per dictionary code for ``distinct`` entries."""
    return _CODE_WIDTHS[np.searchsorted(_CODE_LIMITS, distinct, side="left")]


def _with_validity(valid, payload, starts, counts) -> np.ndarray:
    """Column bytes per bucket: the tag and the payload, a validity
    bitmap where the bucket has a NULL, the tag alone where it has
    nothing else."""
    if valid is None:
        return 1 + payload
    present = np.add.reduceat(valid, starts, dtype=np.int64)
    bitmap = np.where(present < counts, _bits(counts), 0)
    return np.where(present == 0, 1, 1 + bitmap + payload)


class _FixedColumn:
    """A column whose rows all take the same number of payload bytes
    (bits, for BOOLEAN): ``data`` is the int, float, bool or datetime64
    array; NULL slots are written as zero."""

    def __init__(self, tag: int, data, valid: Optional[np.ndarray]):
        self.tag = tag
        self.data = data
        self.valid = valid

    def gather(self, codes: np.ndarray) -> "_FixedColumn":
        data = self.data if self.data is None else self.data[codes]
        valid = self.valid[codes] if self.valid is not None else None
        return _FixedColumn(self.tag, data, valid)

    def _filled(self) -> np.ndarray:
        if self.valid is None:
            return self.data
        return np.where(self.valid, self.data, np.zeros((), self.data.dtype))

    def sizes(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        if self.tag == _BOOL:
            payload = _bits(counts)
        elif self.tag == _INT:
            filled = self._filled()
            payload = counts * _int_widths(
                np.minimum.reduceat(filled, starts),
                np.maximum.reduceat(filled, starts),
            )
        else:
            payload = counts * _WIDTHS[self.tag]
        return _with_validity(self.valid, payload, starts, counts)

    def write(self, out: bytearray) -> None:
        valid = self.valid
        if self.tag == _NULLS or (valid is not None and not valid.any()):
            out.append(_NULLS)
            return
        if valid is not None and valid.all():
            valid = None
        tag = self.tag
        if tag == _INT:
            filled = self._filled()
            tag = _INT_TAGS[int(_int_widths(filled.min(), filled.max()))]
            payload = filled.astype(_INT_DTYPES[tag]).tobytes()
        elif tag == _FLOAT:
            payload = self._filled().astype("<f8").tobytes()
        elif tag == _BOOL:
            payload = np.packbits(self._filled()).tobytes()
        else:  # the numbers of a datetime64 array
            dtype = "<i4" if tag == _DATE else "<i8"
            payload = self._filled().astype(dtype).tobytes()
        out.append(tag if valid is None else tag | _NULLABLE)
        if valid is not None:
            out += np.packbits(valid).tobytes()
        out += payload


class _StringColumn:
    """A column of strings as ``entries[ids]``: the distinct values once,
    their UTF-8 lengths, and an id per row (0 in NULL slots)."""

    def __init__(self, ids, valid, entries: list, lens: np.ndarray):
        self.ids = ids
        self.valid = valid
        self.entries = entries
        self.lens = lens

    @classmethod
    def of(cls, values: Sequence, has_null: bool) -> "_StringColumn":
        distinct = dict.fromkeys(values)
        distinct.pop(None, None)
        entries = list(distinct)
        id_of = dict(zip(entries, range(len(entries))))
        valid = None
        if has_null:
            id_of[None] = 0
            valid = not_null(values)
        ids = np.fromiter(
            map(id_of.__getitem__, values), dtype=np.int64, count=len(values)
        )
        lens = np.fromiter(
            map(len, map(str.encode, entries)),
            dtype=np.int64,
            count=len(entries),
        )
        return cls(ids, valid, entries, lens)

    def gather(self, codes: np.ndarray) -> "_StringColumn":
        valid = self.valid[codes] if self.valid is not None else None
        return _StringColumn(self.ids[codes], valid, self.entries, self.lens)

    def _row_lens(self) -> np.ndarray:
        row_lens = self.lens[self.ids]
        if self.valid is not None:
            row_lens = np.where(self.valid, row_lens, 0)
        return row_lens

    def sizes(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        payload = 4 * counts + np.add.reduceat(self._row_lens(), starts)
        if len(self.entries) < len(self.ids):
            # Some value repeats: the dictionary form may be the smaller
            # one in a bucket.  Distinct (bucket, id) pairs, counted and
            # weighed for all buckets at once.
            width = len(self.entries)
            bucket = np.repeat(np.arange(len(starts)), counts)
            pairs = bucket * width + self.ids
            if self.valid is not None:
                pairs = pairs[self.valid]
            pairs = np.unique(pairs)
            owner = pairs // width
            distinct = np.bincount(owner, minlength=len(starts))
            entry_bytes = np.bincount(
                owner, weights=self.lens[pairs % width], minlength=len(starts)
            ).astype(np.int64)
            payload = np.minimum(
                payload,
                4 + 4 * distinct + entry_bytes
                + counts * _code_width(distinct),
            )
        return _with_validity(self.valid, payload, starts, counts)

    def write(self, out: bytearray) -> None:
        ids, valid = self.ids, self.valid
        if valid is not None and not valid.any():
            out.append(_NULLS)
            return
        if valid is not None and valid.all():
            valid = None
        used = np.unique(ids if valid is None else ids[valid])
        plain = 4 * len(ids) + int(self._row_lens().sum())
        width = int(_code_width(len(used)))
        coded = (
            4 + 4 * len(used) + int(self.lens[used].sum()) + width * len(ids)
        )
        tag = _DICTIONARY if coded < plain else _STRING
        out.append(tag if valid is None else tag | _NULLABLE)
        if valid is not None:
            out += np.packbits(valid).tobytes()
        entries = self.entries
        if tag == _STRING:
            texts = map(entries.__getitem__, ids.tolist())
            if valid is not None:
                texts = [
                    text if ok else ""
                    for text, ok in zip(texts, valid.tolist())
                ]
            out += np.cumsum(self._row_lens()).astype("<u4").tobytes()
            out += "".join(texts).encode("utf-8")
            return
        out += _LENGTH.pack(len(used))
        out += np.cumsum(self.lens[used]).astype("<u4").tobytes()
        out += "".join(map(entries.__getitem__, used.tolist())).encode("utf-8")
        codes = np.searchsorted(used, ids)
        if valid is not None:
            codes = np.where(valid, codes, 0)
        out += codes.astype(f"<u{width}").tobytes()


class _ObjectColumn:
    """Values of no single primitive type: the column's pickle.  A bucket
    of it may still hold one type only, and then weighs what that does."""

    def __init__(self, values: list):
        self.values = values

    def gather(self, codes: np.ndarray):
        # The rows picked may be of one type though the entries are not.
        return _plan_values(
            list(map(self.values.__getitem__, codes.tolist()))
        )

    def sizes(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        out = bytearray()
        sizes = []
        for start, count in zip(starts.tolist(), counts.tolist()):
            del out[:]
            _plan_values(self.values[start : start + count]).write(out)
            sizes.append(len(out))
        return np.array(sizes, dtype=np.int64)

    def write(self, out: bytearray) -> None:
        blob = pickle.dumps(self.values, protocol=4)
        out.append(_OBJECT)
        out += _LENGTH.pack(len(blob))
        out += blob


_NONE = type(None)


def _plan_values(values: list):
    """The wire form of a column given as Python values."""
    kinds = set(map(type, values))
    has_null = _NONE in kinds
    kinds.discard(_NONE)
    if not kinds:
        return _FixedColumn(_NULLS, None, np.zeros(len(values), dtype=bool))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return _StringColumn.of(values, has_null)
    if kind in (int, float, bool, date, datetime):
        # An array unless a value has no slot in one: an int beyond
        # int64, a datetime with a zone or a fold.
        vector = Vector.from_values(values)
        if vector.is_array:
            return _plan(vector)
    return _ObjectColumn(values)


def _plan(vector: Vector):
    """The wire form of a batch column.  It depends on the column's
    values alone: an int64 array, an int32 array and a list of the same
    Python ints plan alike, and a coded vector plans as its values."""
    if isinstance(vector, CodedVector):
        return _plan(vector.dictionary).gather(vector.codes)
    data = vector.data
    if isinstance(data, np.ndarray):
        kind = data.dtype.kind
        if kind == "i":
            return _FixedColumn(_INT, data, vector.valid)
        if kind == "b":
            return _FixedColumn(_BOOL, data, vector.valid)
        if data.dtype == np.float64:
            return _FixedColumn(_FLOAT, data, vector.valid)
        if data.dtype == DAYS:
            return _FixedColumn(_DATE, data, vector.valid)
        if data.dtype == MICROS:
            return _FixedColumn(_TIMESTAMP, data, vector.valid)
        return _plan_values(vector.to_python_list())
    return _plan_values(data if isinstance(data, list) else list(data))


def _read_strings(payload, offset: int, count: int) -> tuple[list, int]:
    """``count`` strings stored as end offsets + UTF-8, and the offset
    past them."""
    ends = np.frombuffer(payload, dtype="<u4", count=count, offset=offset)
    offset += 4 * count
    total = int(ends[-1]) if count else 0
    blob = bytes(payload[offset : offset + total])
    text = blob.decode("utf-8")
    bounds = [0] + ends.tolist()
    if len(text) == total:  # ASCII: character offsets are byte offsets
        source = text
        texts = [source[a:b] for a, b in zip(bounds, bounds[1:])]
    else:
        texts = [blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    return texts, offset + total


class BatchSerde:
    """ColumnBatch <-> bytes, and what those bytes would number.

    The format is self-describing and depends on the values only — not
    on whether a column arrived as an array, a list or codes — so two
    tasks holding the same rows ship the same bytes.  An empty batch is
    the empty string.  ``encoded_size`` is the exchange's accounting
    rule: it prices every bucket of a bucket-ordered batch in one pass
    per column, and equals ``len(encode(bucket))`` for each of them.
    """

    def encode(self, batch: ColumnBatch) -> bytes:
        if not batch.num_rows:
            return b""
        out = bytearray(_HEADER.pack(batch.num_rows, len(batch.entries)))
        for vector in batch.vectors():
            _plan(vector).write(out)
        return bytes(out)

    def encoded_size(
        self, batch: ColumnBatch, offsets: Optional[np.ndarray] = None
    ) -> list[int]:
        """Encoded bytes of each bucket ``offsets[i]:offsets[i + 1]`` of
        ``batch`` (of the whole batch, as a one-element list, without
        ``offsets``); an empty bucket is 0 bytes."""
        return self.measure(batch, offsets)[0]

    def measure(
        self, batch: ColumnBatch, offsets: Optional[np.ndarray] = None
    ) -> tuple[list[int], int]:
        """:meth:`encoded_size`, and how many of all those bytes belong
        to columns that had to be pickled (what makes an exchange fat)."""
        if offsets is None:
            starts, counts = _FIRST_ROW, np.array([batch.num_rows])
            filled = slice(None) if batch.num_rows else slice(0)
        else:
            counts = np.diff(offsets)
            filled = counts > 0
            starts = offsets[:-1][filled]
        sizes = np.zeros(len(counts), dtype=np.int64)
        counts = counts[filled]
        pickled = 0
        if len(counts):
            total = np.full(len(counts), _HEADER.size, dtype=np.int64)
            for vector in batch.vectors():
                column = _plan(vector)
                column_sizes = column.sizes(starts, counts)
                if isinstance(column, _ObjectColumn):
                    pickled += int(column_sizes.sum())
                total += column_sizes
            sizes[filled] = total
        return sizes.tolist(), pickled

    def decode(self, payload: bytes) -> ColumnBatch:
        if not payload:
            return ColumnBatch([], 0)
        view = memoryview(payload)
        rows, width = _HEADER.unpack_from(view, 0)
        offset = _HEADER.size
        entries = []
        for __ in range(width):
            vector, offset = self._decode_column(view, offset, rows)
            entries.append(vector)
        if offset != len(payload):
            raise StorageError(
                f"batch payload has {len(payload) - offset} trailing bytes"
            )
        return ColumnBatch(entries, rows)

    @staticmethod
    def _decode_column(view, offset: int, rows: int) -> tuple[Vector, int]:
        tag = view[offset]
        offset += 1
        valid = None
        if tag & _NULLABLE:
            tag &= ~_NULLABLE
            size = (rows + 7) // 8
            valid = np.unpackbits(
                np.frombuffer(view, np.uint8, size, offset), count=rows
            ).astype(bool)
            offset += size
        if tag == _NULLS:
            return Vector([None] * rows), offset
        if tag in _INT_DTYPES or tag == _FLOAT:
            dtype = np.dtype(_INT_DTYPES.get(tag, "<f8"))
            data = np.frombuffer(view, dtype, rows, offset)
            wide = np.int64 if tag != _FLOAT else np.float64
            return (
                Vector(data.astype(wide), valid),
                offset + rows * dtype.itemsize,
            )
        if tag == _BOOL:
            size = (rows + 7) // 8
            data = np.unpackbits(
                np.frombuffer(view, np.uint8, size, offset), count=rows
            ).astype(bool)
            return Vector(data, valid), offset + size
        if tag == _OBJECT:
            (size,) = _LENGTH.unpack_from(view, offset)
            offset += _LENGTH.size
            return (
                Vector(pickle.loads(view[offset : offset + size])),
                offset + size,
            )
        if tag in (_DATE, _TIMESTAMP):
            width, dtype = (4, DAYS) if tag == _DATE else (8, MICROS)
            data = np.frombuffer(view, f"<i{width}", rows, offset)
            return Vector(data.astype(dtype), valid), offset + width * rows
        if tag == _STRING:
            values, offset = _read_strings(view, offset, rows)
        elif tag == _DICTIONARY:
            (count,) = _LENGTH.unpack_from(view, offset)
            entries, offset = _read_strings(
                view, offset + _LENGTH.size, count
            )
            width = int(_code_width(count))
            codes = np.frombuffer(view, f"<u{width}", rows, offset)
            offset += width * rows
            values = list(map(entries.__getitem__, codes.tolist()))
        else:
            raise StorageError(f"unknown batch column tag {tag}")
        if valid is not None:
            for index in np.flatnonzero(~valid).tolist():
                values[index] = None
        return Vector(values), offset


#: StructType rows serialize via pickle in BinarySerde; exported for benches.
__all__ = ["TextSerde", "BinarySerde", "SpillSerde", "BatchSerde"]
