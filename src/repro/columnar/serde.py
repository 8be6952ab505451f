"""Row serdes (text and binary wire formats) and the column format.

The row serdes back the HDFS-like store and the Hadoop ML baselines: the
paper's Figures 11-12 compare Hadoop reading "text" records against a
compact "binary" format, which differ in size and in per-record decode
cost.  The column format is the one encoding of a column everywhere it
is bytes: a memstore block's columns (:func:`write_column`, DESIGN §16)
and, through :class:`BatchSerde`, everything that leaves a task as a
:class:`~repro.columnar.batch.ColumnBatch` — shuffle buckets, spilled
runs, a join's build side.  One writer prices every encoding a column
allows (plain, run-length, dictionary, bit-packed) and writes the
smallest, so it is also the one statement of what a column weighs
(DESIGN §17).
"""

from __future__ import annotations

import pickle
import struct
from datetime import date, datetime
from functools import reduce
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.columnar.batch import (
    CodedVector,
    ColumnBatch,
    Vector,
    not_null,
    transpose_rows,
)
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
from repro.errors import AnalysisError, CompressionError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.analysis import ColumnAnalysis

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
# The column format: exchange buckets, spilled runs and memstore blocks
# ---------------------------------------------------------------------------

#: Column tags.  A column is ``tag [validity bits] payload``; the high bit
#: of the tag says a validity bitmap (one bit per row) follows, and the
#: payload then holds the NULL rows as zeros ("" for strings).  A nested
#: column (a dictionary's entries, a run-length column's lengths and
#: values, a bit-packed column's base) is a NULL-free plain column.
(
    _NULLS,  # every row NULL: no payload
    _INT8, _INT16, _INT32, _INT64,  # the narrowest holding min..max
    _FLOAT,  # 8 bytes per row
    _BOOL,  # one bit per row
    _DATE,  # 4-byte days since the epoch
    _TIMESTAMP,  # 8-byte microseconds since the epoch
    _STRING,  # 4-byte end offsets, then UTF-8
    _DICTIONARY,  # code width (1 byte), 1/2/4-byte codes, the entries
    _OBJECT,  # 4-byte length, then the column's pickle
    _RLE,  # run count (4 bytes), the run lengths, the run values
    _PACKED,  # bit width (1 byte), each row's offset from the base, the base
) = range(14)
_NULLABLE = 0x80
_INT = _INT8  # an integer column before its width is chosen
_INT_TAGS = {1: _INT8, 2: _INT16, 4: _INT32, 8: _INT64}
#: Each number tag's stored form, and the array it decodes to.
_NUMBERS = {
    _INT8: ("<i1", np.int64), _INT16: ("<i2", np.int64),
    _INT32: ("<i4", np.int64), _INT64: ("<i8", np.int64),
    _FLOAT: ("<f8", np.float64), _DATE: ("<i4", DAYS),
    _TIMESTAMP: ("<i8", MICROS),
}
_WIDTHS = {_FLOAT: 8, _DATE: 4, _TIMESTAMP: 8}
#: The encodings the writer prices, in the order that breaks a tie.  A
#: column's "plain" encoding is the tag of its type.
SCHEMES = ("plain", "rle", "dictionary", "bitpack")
_SCHEME_OF = {_RLE: "rle", _DICTIONARY: "dictionary", _PACKED: "bitpack"}
_HEADER = struct.Struct("<IH")  # rows, columns
HEADER_BYTES = _HEADER.size
_FIRST_ROW = np.zeros(1, dtype=np.int64)  # where a whole batch starts
_LENGTH = struct.Struct("<I")


def _bits(counts):
    """Bytes of a bitmap with one bit per row."""
    return (counts + 7) // 8


#: A signed width of w bytes holds low..high when max(high, -low - 1) is
#: below 2**(8w - 1): the first width whose limit exceeds it.
_INT_LIMITS = np.array([2 ** 7, 2 ** 15, 2 ** 31])
_INT_WIDTHS = np.array([1, 2, 4, 8])
_INT64_RANGE = np.iinfo(np.int64)
_CODE_LIMITS = np.array([2 ** 8, 2 ** 16])
_CODE_WIDTHS = np.array([1, 2, 4])
#: 2**0 .. 2**63: how many of them a number reaches is its bit length.
_POWERS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _int_widths(low, high):
    """Bytes of the narrowest signed width holding ``low..high``."""
    reach = np.maximum(high, ~low)  # ~low is -low - 1
    return _INT_WIDTHS[_INT_LIMITS.searchsorted(reach, "right")]


def _code_width(distinct):
    """Bytes per dictionary code for ``distinct`` entries."""
    return _CODE_WIDTHS[_CODE_LIMITS.searchsorted(distinct)]


def _bit_widths(low, high):
    """Bits per row of the offsets from ``low`` up to ``high`` (int64
    arrays, the span taken modulo 2**64); one at least."""
    span = high.view(np.uint64) - low.view(np.uint64)
    return np.maximum(_POWERS.searchsorted(span, "right"), 1)


def _breaks(keys: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Where a run of equal ``keys`` begins, every bucket beginning one."""
    breaks = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=breaks[1:])
    breaks[starts] = True
    return breaks


def _longest(breaks: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The longest run of each bucket."""
    firsts = np.flatnonzero(breaks)
    lengths = np.diff(firsts, append=len(breaks))
    return np.maximum.reduceat(lengths, np.searchsorted(firsts, starts))


def _sorted_set(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort, which outruns
    ``np.unique``'s hashing on the columns a task holds."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct(ids, size: int, counts, valid=None) -> np.ndarray:
    """The distinct (bucket, id) pairs of the valid rows, as the sorted
    numbers ``bucket * size + id`` (every id below ``size``): marked in
    a table where it has no more slots than eight a row, else sorted."""
    pairs = np.repeat(np.arange(len(counts)) * size, counts) + ids
    if valid is not None:
        pairs = pairs[valid]
    if len(counts) * size > 8 * len(ids):
        return _sorted_set(pairs)
    table = np.zeros(len(counts) * size, dtype=bool)
    table[pairs] = True
    return np.flatnonzero(table)


def _with_validity(valid, payload, starts, counts) -> np.ndarray:
    """Column bytes per bucket: the tag and the payload, a validity
    bitmap where the bucket has a NULL, the tag alone where it has
    nothing else."""
    if valid is None:
        return 1 + payload
    present = np.add.reduceat(valid, starts, dtype=np.int64)
    bitmap = np.where(present < counts, _bits(counts), 0)
    return np.where(present == 0, 1, 1 + bitmap + payload)


def _plain(tag: int, data: np.ndarray) -> tuple[int, bytes]:
    """The plain tag and payload of NULL-free ``data`` of a fixed kind."""
    if tag == _BOOL:
        return tag, np.packbits(data).tobytes()
    if tag == _INT:
        tag = _INT_TAGS[int(_int_widths(data.min(), data.max()))]
    return tag, data.astype(_NUMBERS[tag][0]).tobytes()


def _nest(tag: int, data: np.ndarray, out: bytearray) -> None:
    """Append ``data`` as a nested plain column."""
    tag, payload = _plain(tag, data)
    out.append(tag)
    out += payload


def _strings(texts: list, lens: np.ndarray, out: bytearray) -> None:
    """Append ``texts`` (of UTF-8 lengths ``lens``) as end offsets, then
    UTF-8."""
    out += np.cumsum(lens).astype("<u4").tobytes()
    out += "".join(texts).encode("utf-8")


class _Column:
    """A column planned for the format: what each bucket of it weighs
    under each encoding it has (``prices``, payload bytes; an encoding
    a floor shows cannot be the cheapest is left out) and its bytes under
    one (``encoded``).  The writer prices, then writes the cheapest;
    ``sizes`` is that price per bucket, with the tag and validity."""

    valid: Optional[np.ndarray] = None
    schemes: tuple = ("plain",)

    def sizes(self, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        payload = reduce(np.minimum, self.prices(starts, counts).values())
        return _with_validity(self.valid, payload, starts, counts)

    def choose(self, schemes: Sequence[str] = SCHEMES) -> str:
        """The cheapest of ``schemes`` (all of them, or one) for the
        whole column, the first of equals; CompressionError when the
        column has none of them."""
        allowed = [name for name in schemes if name in self.schemes]
        if not allowed:
            raise CompressionError(
                f"no {'/'.join(schemes)} encoding for this column"
            )
        if len(allowed) == 1:
            return allowed[0]
        prices = self.prices(_FIRST_ROW, np.array([len(self)]))
        return min(
            (name for name in allowed if name in prices),
            key=lambda name: int(prices[name][0]),
        )

    def write(self, out: bytearray, schemes: Sequence[str] = SCHEMES) -> None:
        valid = self.valid
        if valid is not None and not valid.any():
            if "plain" not in schemes:
                raise CompressionError("a column of NULLs is a tag alone")
            out.append(_NULLS)
            return
        tag, payload = self.encoded(self.choose(schemes))
        if valid is None or valid.all():
            out.append(tag)
        else:
            out.append(tag | _NULLABLE)
            out += np.packbits(valid).tobytes()
        out += payload

    def encoded(self, scheme: str) -> tuple[int, bytes]:
        """(tag, payload) under ``scheme``.  Runs and a dictionary are of
        the rows' keys (equal exactly where the values written are); the
        run values and the entries are keys ``_nest_keys`` writes."""
        if scheme == "plain":
            return self._plain()
        if scheme == "bitpack":
            return self._packed()
        keys, out = self._keys(), bytearray()
        if scheme == "rle":
            firsts = np.flatnonzero(_breaks(keys, _FIRST_ROW))
            out += _LENGTH.pack(len(firsts))
            _nest(_INT, np.diff(firsts, append=len(keys)), out)
            self._nest_keys(keys[firsts], out)
            return _RLE, out
        # Entries: the valid rows' distinct keys, ascending; a NULL row
        # takes code 0.
        rows = slice(None) if self.valid is None else self.valid
        entries, inverse = np.unique(keys[rows], return_inverse=True)
        width = int(_code_width(len(entries)))
        codes = np.zeros(len(keys), dtype=f"<u{width}")
        codes[rows] = inverse
        out.append(width)
        out += codes.tobytes()
        self._nest_keys(entries, out)
        return _DICTIONARY, out


class _FixedColumn(_Column):
    """A column whose rows all take the same number of payload bytes
    (bits, for BOOLEAN): ``data`` is the int, float, bool or datetime64
    array; NULL slots are written as zero."""

    def __init__(self, tag: int, data, valid: Optional[np.ndarray]):
        self.tag = tag
        self.data = data
        self.valid = valid
        if data is not None:
            numeric = tag in (_INT, _DATE, _TIMESTAMP)
            self.schemes = SCHEMES if numeric else SCHEMES[:3]

    def __len__(self) -> int:
        return len(self.valid if self.data is None else self.data)

    def gather(self, codes: np.ndarray) -> "_FixedColumn":
        data = self.data if self.data is None else self.data[codes]
        valid = self.valid[codes] if self.valid is not None else None
        return _FixedColumn(self.tag, data, valid)

    def _filled(self) -> np.ndarray:
        if self.valid is None:
            return self.data
        return np.where(self.valid, self.data, np.zeros((), self.data.dtype))

    def _keys(self) -> np.ndarray:
        """The filled values as int64, a float as its bits (so -0.0 is
        not 0.0)."""
        filled = self._filled()
        if filled.dtype.kind in "fM":
            return filled.view(np.int64)
        return filled.astype(np.int64, copy=False)

    def _plain(self) -> tuple[int, bytes]:
        return _plain(self.tag, self._filled())

    def _nest_keys(self, keys: np.ndarray, out: bytearray) -> None:
        """Append the values of ``keys`` as a nested plain column."""
        if self.tag == _FLOAT:
            keys = keys.view(np.float64)
        elif self.tag == _BOOL:
            keys = keys.astype(bool)
        _nest(self.tag, keys, out)

    def _packed(self) -> tuple[int, bytes]:
        numbers, out = self._keys(), bytearray()
        low = int(numbers.argmin())
        offsets = numbers.view(np.uint64) - numbers.view(np.uint64)[low]
        width = max(int(offsets.max()).bit_length(), 1)
        # Bit j of offset i is bit i * width + j of a little-endian stream:
        # each offset's low ``width`` bits, from its narrowest whole word.
        size = next(size for size in (1, 2, 4, 8) if 8 * size >= width)
        bits = np.unpackbits(
            offsets.astype(f"<u{size}").view(np.uint8).reshape(-1, size),
            axis=1,
            bitorder="little",
        )
        out.append(width)
        out += np.packbits(bits[:, :width], bitorder="little").tobytes()
        self._nest_keys(numbers[low : low + 1], out)
        return _PACKED, out

    def prices(self, starts: np.ndarray, counts: np.ndarray) -> dict:
        if self.data is None:
            return {"plain": np.zeros(len(counts), dtype=np.int64)}
        numbers, tag, valid = self._keys(), self.tag, self.valid
        width = None if tag == _BOOL else _WIDTHS.get(tag)
        if "bitpack" in self.schemes:
            low = np.minimum.reduceat(numbers, starts)
            high = np.maximum.reduceat(numbers, starts)
            if tag == _INT:
                width = _int_widths(low, high)

        def value_bytes(count, width=width):
            return _bits(count) if width is None else count * width

        prices = {"plain": value_bytes(counts)}
        if counts.max() < 2:  # a row a bucket: any other form adds framing
            return prices
        if "bitpack" in self.schemes:
            # The bit width and the packed offsets, then the base nested.
            base = _int_widths(low, low) if tag == _INT else width
            packed = _bits(counts * _bit_widths(low, high))
            prices["bitpack"] = 2 + packed + base
        best = reduce(np.minimum, prices.values())
        # The run count, then the lengths and the values nested; priced
        # where a byte a run length would undercut.
        breaks = _breaks(numbers, starts)
        runs = np.add.reduceat(breaks, starts, dtype=np.int64)
        if (6 + runs + value_bytes(runs) <= best).any():
            lengths = _int_widths(0, _longest(breaks, starts))
            prices["rle"] = 6 + runs * lengths + value_bytes(runs)
            best = np.minimum(best, prices["rle"])
        # The code width and the codes, then the entries nested; priced
        # where a byte a code and one entry would undercut.
        if (3 + counts > best).all():
            return prices
        # Entries per bucket from its distinct (bucket, value) pairs, the
        # value an offset from the least where that fits in int64 ...
        size = 2 ** 64
        if "bitpack" in self.schemes:
            size = int(high.max()) - int(low.min()) + 1
        if size * len(counts) < 2 ** 63:
            pairs = _distinct(numbers - low.min(), size, counts, valid)
            distinct = np.bincount(pairs // size, minlength=len(counts))
        elif len(counts) == 1:
            present = numbers if valid is None else numbers[valid]
            distinct = np.array([len(_sorted_set(present))])
        else:
            # ... else (a double's bits) its rank, where a bucket's valid
            # rows less the repeats of the whole column, as entries, still
            # undercut.
            size = len(_sorted_set(numbers))
            present = counts if valid is None else np.add.reduceat(
                valid, starts, dtype=np.int64
            )
            fewest = np.maximum(present - len(numbers) + size, 1)
            floor = counts * _code_width(fewest) + value_bytes(fewest)
            if (2 + floor > best).all():
                return prices
            ids = np.unique(numbers, return_inverse=True)[1]
            pairs = _distinct(ids, size, counts, valid)
            distinct = np.bincount(pairs // size, minlength=len(counts))
        if valid is not None and tag == _INT:  # the entries' own range
            top, bottom = _INT64_RANGE.max, _INT64_RANGE.min
            width = _int_widths(
                np.minimum.reduceat(np.where(valid, numbers, top), starts),
                np.maximum.reduceat(np.where(valid, numbers, bottom), starts),
            )
        prices["dictionary"] = (
            2 + counts * _code_width(distinct) + value_bytes(distinct, width)
        )
        return prices


class _StringColumn(_Column):
    """A column of strings as ``entries[ids]``: the distinct values once,
    their UTF-8 lengths, and an id per row (0 in NULL slots)."""

    schemes = SCHEMES[:3]

    def __init__(self, ids, valid, entries: list, lens: np.ndarray):
        self.ids = ids
        self.valid = valid
        self.entries = entries
        self.lens = lens

    @classmethod
    def of(cls, values: Sequence, has_null: bool, distinct=None):
        """The column of ``values`` (their ``dict.fromkeys``, if made)."""
        if distinct is None:
            distinct = dict.fromkeys(values)
        entries = [value for value in distinct if value is not None]
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

    def __len__(self) -> int:
        return len(self.ids)

    def gather(self, codes: np.ndarray) -> "_StringColumn":
        valid = self.valid[codes] if self.valid is not None else None
        return _StringColumn(self.ids[codes], valid, self.entries, self.lens)

    def _keys(self) -> np.ndarray:
        """The ids, -1 for a NULL (written as "")."""
        if self.valid is None:
            return self.ids
        return np.where(self.valid, self.ids, -1)

    def _write_texts(self, keys: np.ndarray, out: bytearray) -> None:
        """Append the strings of ``keys`` ("" for -1, a NULL)."""
        texts = list(map(self.entries.__getitem__, keys.tolist()))
        lens = self.lens[keys]
        if self.valid is not None:
            present = (keys >= 0).tolist()
            texts = [text if ok else "" for text, ok in zip(texts, present)]
            lens = np.where(keys >= 0, lens, 0)
        _strings(texts, lens, out)

    def _plain(self) -> tuple[int, bytes]:
        out = bytearray()
        self._write_texts(self._keys(), out)
        return _STRING, out

    def _nest_keys(self, keys: np.ndarray, out: bytearray) -> None:
        out.append(_STRING)
        self._write_texts(keys, out)

    def prices(self, starts: np.ndarray, counts: np.ndarray) -> dict:
        row_lens = self.lens[self.ids]
        if self.valid is not None:
            row_lens = np.where(self.valid, row_lens, 0)
        prices = {"plain": 4 * counts + np.add.reduceat(row_lens, starts)}
        if counts.max() < 2:  # a row a bucket: any other form adds framing
            return prices
        # A run-length form where a byte a run length would undercut.
        breaks = _breaks(self._keys(), starts)
        runs = np.add.reduceat(breaks, starts, dtype=np.int64)
        rle = 6 + 4 * runs + np.add.reduceat(
            np.where(breaks, row_lens, 0), starts
        )
        if (rle + runs <= prices["plain"]).any():
            lengths = _int_widths(0, _longest(breaks, starts))
            prices["rle"] = rle + runs * lengths
        if np.bincount(self.ids).max() < 2:
            # No string repeats: an entry a row costs what plain does and
            # the codes besides.
            return prices
        # The distinct strings of each bucket's valid rows, weighed for
        # all buckets at once.
        size = len(self.entries)
        pairs = _distinct(self.ids, size, counts, self.valid)
        owner = pairs // size
        distinct = np.bincount(owner, minlength=len(counts))
        entry_bytes = np.bincount(
            owner, weights=self.lens[pairs % size], minlength=len(counts)
        ).astype(np.int64)
        prices["dictionary"] = (
            2 + counts * _code_width(distinct) + 4 * distinct + entry_bytes
        )
        return prices


class _ObjectColumn(_Column):
    """Values of no single primitive type: the column's pickle.  A bucket
    of it may still hold one type only, and then weighs what that type
    does."""

    def __init__(self, values: list):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

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

    def encoded(self, scheme: str) -> tuple[int, bytes]:
        blob = pickle.dumps(self.values, protocol=4)
        return _OBJECT, _LENGTH.pack(len(blob)) + blob


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


def _stored(column: "ColumnAnalysis"):
    """A stored column's plan (DESIGN §16): the schema's array when it
    holds the values (``ColumnAnalysis.array``), else the values planned
    as an exchange plans them; NULLs are validity bits either way."""
    if not len(column):
        return _plan_values([])
    if column.array is not None:
        return _plan(Vector(column.array))
    if column.kind is str:  # its distinct values are the statistics'
        distinct = column.distinct
        return _StringColumn.of(column.values, column.has_null, distinct)
    return _plan_values(list(column.values))


def write_column(
    column: "ColumnAnalysis", schemes: Sequence[str] = SCHEMES
) -> bytes:
    """A loading task's column as the cheapest of ``schemes``."""
    out = bytearray()
    _stored(column).write(out, schemes)
    return bytes(out)


def cheapest_scheme(column: "ColumnAnalysis") -> str:
    """The encoding :func:`write_column` picks, priced but not written."""
    return _stored(column).choose()


def scheme_of(payload: bytes) -> str:
    """The encoding a written column is in."""
    return _SCHEME_OF.get(payload[0] & ~_NULLABLE, "plain")


def read_column(payload: bytes, rows: int) -> Vector:
    """A column :func:`write_column` wrote, of ``rows`` rows."""
    return _read(memoryview(payload), 0, rows)[0]


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


def _array(view, dtype: str, count: int, offset: int) -> np.ndarray:
    """``count`` numbers at ``offset``: a view of the bytes where they
    lie aligned, else a copy (numpy gathers 5x slower from a misaligned
    array)."""
    data = np.frombuffer(view, dtype, count, offset)
    return data if data.flags.aligned else data.copy()


def _unpack(view, offset: int, rows: int, width: int) -> np.ndarray:
    """``rows`` offsets of ``width`` bits packed from ``offset``, as
    uint64.  Offset i is the word at byte i * width // 8 shifted down to
    its first bit (and the next word's low bits past 57), masked; the
    stream's words at each of the 8 byte phases, end to end, make every
    such word one gather."""
    size = (rows * width + 7) // 8
    words = size // 8 + 2
    stream = np.zeros(8 * words + 8, dtype=np.uint8)
    stream[:size] = np.frombuffer(view, np.uint8, size, offset)
    phases = np.concatenate(
        [np.frombuffer(stream, "<u8", words, k) for k in range(8)]
    )
    first = np.arange(rows, dtype=np.int64) * width
    at = ((first >> 3) & 7) * words + (first >> 6)
    shift = (first & 7).astype(np.uint64)
    offsets = phases[at] >> shift
    if width > 57:
        offsets |= (phases[at + 1] << (np.uint64(63) - shift)) << np.uint64(1)
    return offsets & np.uint64(2**width - 1)


def _read(view, offset: int, rows: int) -> tuple[Vector, int]:
    """The column of ``rows`` rows at ``offset``, and the offset past it.
    A dictionary reads as a :class:`CodedVector`; a number column whose
    bytes are its array's is a view of them (:func:`_array`)."""
    tag = view[offset]
    offset += 1
    valid = None
    if tag & _NULLABLE:
        tag &= ~_NULLABLE
        valid = np.unpackbits(
            np.frombuffer(view, np.uint8, _bits(rows), offset), count=rows
        ).astype(bool)
        offset += _bits(rows)
    if tag in _NUMBERS:
        stored, dtype = _NUMBERS[tag]
        data = _array(view, stored, rows, offset)
        offset += data.nbytes
        data = data.view(dtype) if tag == _TIMESTAMP else data.astype(
            dtype, copy=False
        )
        vector = Vector(data)
    elif tag == _BOOL:
        vector = Vector(
            np.unpackbits(
                np.frombuffer(view, np.uint8, _bits(rows), offset), count=rows
            ).astype(bool)
        )
        offset += _bits(rows)
    elif tag == _STRING:
        values, offset = _read_strings(view, offset, rows)
        vector = Vector(values)
    elif tag == _OBJECT:
        (size,) = _LENGTH.unpack_from(view, offset)
        offset += _LENGTH.size + size
        vector = Vector(pickle.loads(view[offset - size : offset]))
    elif tag == _DICTIONARY:
        width = view[offset]
        codes = _array(view, f"<u{width}", rows, offset + 1)
        entries, offset = _read(
            view, offset + 1 + width * rows, int(codes.max()) + 1
        )
        vector = CodedVector(codes, entries)
    elif tag == _RLE:
        (count,) = _LENGTH.unpack_from(view, offset)
        lengths, offset = _read(view, offset + _LENGTH.size, count)
        values, offset = _read(view, offset, count)
        if values.is_array:
            vector = Vector(np.repeat(values.data, lengths.data))
        else:
            runs = map(repeat, values.data, lengths.data.tolist())
            vector = Vector(list(chain.from_iterable(runs)))
    elif tag == _PACKED:
        width = view[offset]
        offsets = _unpack(view, offset + 1, rows, width)
        base, offset = _read(view, offset + 1 + _bits(rows * width), 1)
        numbers = offsets + base.data.view(np.uint64)
        vector = Vector(numbers.view(np.int64).view(base.data.dtype))
    elif tag == _NULLS:
        vector = Vector([None] * rows)
    else:
        raise StorageError(f"unknown batch column tag {tag}")
    if valid is None:
        return vector, offset
    return _null_rows(vector, valid), offset


def _null_rows(vector: Vector, valid: np.ndarray) -> Vector:
    """``vector`` with the rows ``valid`` marks made NULL; a coded one
    gains a NULL entry for them."""
    if isinstance(vector, CodedVector):
        entries = vector.dictionary
        count = len(entries)
        if entries.is_array:
            data = np.concatenate([entries.data, entries.data[:1]])
            entries = Vector(data, np.arange(count + 1) < count)
        else:
            entries = Vector(entries.data + [None])
        codes = np.where(valid, vector.codes, np.int64(count))
        return CodedVector(codes, entries)
    if vector.is_array:
        return Vector(vector.data, valid)
    for index in np.flatnonzero(~valid).tolist():
        vector.data[index] = None
    return vector


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
            vector, offset = _read(view, offset, rows)
            entries.append(vector)
        if offset != len(payload):
            raise StorageError(
                f"batch payload has {len(payload) - offset} trailing bytes"
            )
        return ColumnBatch(entries, rows)


#: StructType rows serialize via pickle in BinarySerde; exported for benches.
__all__ = ["TextSerde", "BinarySerde", "SpillSerde", "BatchSerde"]
