"""Row serdes: text and binary wire formats.

These back the HDFS-like store and the Hadoop ML baselines: the paper's
Figures 11-12 compare Hadoop reading "text" records against a compact
"binary" format, which differ in size and in per-record decode cost.
"""

from __future__ import annotations

import pickle
import struct
from datetime import date, datetime
from itertools import repeat
from typing import Any

from repro.columnar.table import transpose_rows
from repro.datatypes import (
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
)
from repro.errors import AnalysisError, StorageError

_NULL_TOKEN = "\\N"

#: Text of one non-NULL value, by its Python type.
_TEXT_FORMATTERS = {
    int: str,
    float: str,
    str: str,
    bool: ("false", "true").__getitem__,
    date: date.isoformat,
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
        text = payload.decode("utf-8")
        if text.endswith("\n"):
            text = text[:-1]
        # Split on the record delimiter only; field values may contain
        # characters like \r that str.splitlines would treat as breaks.
        lines = text.split("\n") if text else []
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
            out.extend(struct.pack("<d", value.timestamp()))
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
            stamp = struct.unpack_from("<d", payload, offset)[0]
            return datetime.fromtimestamp(stamp), offset + 8
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


#: StructType rows serialize via pickle in BinarySerde; exported for benches.
__all__ = ["TextSerde", "BinarySerde", "SpillSerde"]
