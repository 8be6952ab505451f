"""The shared type system: SQL data types, fields, and schemas.

Used by the SQL front end (column types, expression typing), the columnar
store (array dtypes, compression choices), and the serdes (wire formats).
Modelled on Hive's primitive types plus the complex types the paper calls
out (array/map/struct appear in the real-warehouse workload, Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from operator import attrgetter
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class DataType:
    """Base class for SQL data types."""

    name: str = field(default="", init=False)

    def validate(self, value: Any) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name.upper()


@dataclass(frozen=True)
class IntegerType(DataType):
    name = "int"

    def validate(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class LongType(DataType):
    name = "bigint"

    def validate(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DoubleType(DataType):
    name = "double"

    def validate(self, value: Any) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class StringType(DataType):
    name = "string"

    def validate(self, value: Any) -> bool:
        return isinstance(value, str)


@dataclass(frozen=True)
class BooleanType(DataType):
    name = "boolean"

    def validate(self, value: Any) -> bool:
        return isinstance(value, bool)


@dataclass(frozen=True)
class DateType(DataType):
    name = "date"

    def validate(self, value: Any) -> bool:
        return isinstance(value, date) and not isinstance(value, datetime)


@dataclass(frozen=True)
class TimestampType(DataType):
    name = "timestamp"

    def validate(self, value: Any) -> bool:
        return isinstance(value, datetime)


@dataclass(frozen=True)
class ArrayType(DataType):
    """Complex type: serialized to bytes in the columnar store (Section 3.2)."""

    element_type: "DataType" = None  # type: ignore[assignment]
    name = "array"

    def validate(self, value: Any) -> bool:
        return isinstance(value, (list, tuple))

    def __str__(self) -> str:
        return f"ARRAY<{self.element_type}>"


@dataclass(frozen=True)
class MapType(DataType):
    key_type: "DataType" = None  # type: ignore[assignment]
    value_type: "DataType" = None  # type: ignore[assignment]
    name = "map"

    def validate(self, value: Any) -> bool:
        return isinstance(value, dict)

    def __str__(self) -> str:
        return f"MAP<{self.key_type},{self.value_type}>"


@dataclass(frozen=True)
class StructType(DataType):
    field_names: tuple = ()
    field_types: tuple = ()
    name = "struct"

    def validate(self, value: Any) -> bool:
        return isinstance(value, (tuple, dict))

    def __str__(self) -> str:
        inner = ",".join(
            f"{n}:{t}" for n, t in zip(self.field_names, self.field_types)
        )
        return f"STRUCT<{inner}>"


INT = IntegerType()
BIGINT = LongType()
DOUBLE = DoubleType()
STRING = StringType()
BOOLEAN = BooleanType()
DATE = DateType()
TIMESTAMP = TimestampType()

_PRIMITIVES_BY_NAME = {
    "int": INT,
    "integer": INT,
    "tinyint": INT,
    "smallint": INT,
    "bigint": BIGINT,
    "long": BIGINT,
    "float": DOUBLE,
    "double": DOUBLE,
    "decimal": DOUBLE,
    "string": STRING,
    "varchar": STRING,
    "char": STRING,
    "text": STRING,
    "boolean": BOOLEAN,
    "bool": BOOLEAN,
    "date": DATE,
    "timestamp": TIMESTAMP,
}

#: Numeric types, ordered by promotion priority.
NUMERIC_TYPES = (INT, BIGINT, DOUBLE)

#: The array dtypes of DATE and TIMESTAMP columns: days and microseconds
#: since 1970-01-01, whose ``tolist()`` gives ``date`` / ``datetime``
#: objects back — the dtype is the logical type.
DAYS = np.dtype("datetime64[D]")
MICROS = np.dtype("datetime64[us]")
_EPOCH = datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MICROSECOND = timedelta(microseconds=1)


def time_number(value: date) -> int:
    """The integer a datetime64 array holds for ``value``: the day number
    of a date, the microseconds of a naive datetime (TypeError for one
    with a zone)."""
    if isinstance(value, datetime):
        return (value - _EPOCH) // _MICROSECOND
    return value.toordinal() - _EPOCH_ORDINAL


def datetime64_array(values: Sequence, kind: type) -> Optional[np.ndarray]:
    """NULL-free ``values``, every one exactly of Python type ``kind``, as
    the datetime64 array whose ``tolist()`` gives them back; None when
    there is none (``kind`` is neither ``date`` nor ``datetime``, or a
    datetime carries a zone or a fold, which have no slot).  Built from
    the values' numbers: ``np.array(dates, "M8[D]")`` is 30x slower."""
    if kind is date:
        days = np.fromiter(map(date.toordinal, values), np.int64, len(values))
        days -= _EPOCH_ORDINAL
        return days.view(DAYS)
    if kind is not datetime or any(map(attrgetter("fold"), values)):
        return None
    try:
        return np.fromiter(
            map(time_number, values), np.int64, len(values)
        ).view(MICROS)
    except TypeError:
        return None


def type_by_name(name: str) -> DataType:
    """Resolve a type name from SQL text (case-insensitive)."""
    try:
        return _PRIMITIVES_BY_NAME[name.lower()]
    except KeyError:
        raise AnalysisError(f"unknown data type {name!r}") from None


def is_numeric(data_type: DataType) -> bool:
    return isinstance(data_type, (IntegerType, LongType, DoubleType))


def promote(left: DataType, right: DataType) -> DataType:
    """Common type of two operands in an arithmetic expression."""
    if left == right:
        return left
    if is_numeric(left) and is_numeric(right):
        if DOUBLE in (left, right):
            return DOUBLE
        if BIGINT in (left, right):
            return BIGINT
        return INT
    raise AnalysisError(f"cannot promote {left} and {right}")


def infer_type(value: Any) -> DataType:
    """Infer the SQL type of a Python value (for schema-on-read loading)."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, np.integer)):
        return BIGINT if abs(int(value)) > 2**31 - 1 else INT
    if isinstance(value, (float, np.floating)):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    if isinstance(value, datetime):
        return TIMESTAMP
    if isinstance(value, date):
        return DATE
    if isinstance(value, (list, tuple)):
        element = infer_type(value[0]) if value else STRING
        return ArrayType(element_type=element)
    if isinstance(value, dict):
        if value:
            key, val = next(iter(value.items()))
            return MapType(key_type=infer_type(key), value_type=infer_type(val))
        return MapType(key_type=STRING, value_type=STRING)
    raise AnalysisError(f"cannot infer SQL type for {type(value).__name__}")


@dataclass(frozen=True)
class Field:
    """One named, typed column of a schema."""

    name: str
    data_type: DataType
    nullable: bool = True

    def __str__(self) -> str:
        return f"{self.name} {self.data_type}"


class Schema:
    """An ordered collection of fields with fast name lookup."""

    def __init__(self, fields: Iterable[Field]):
        self.fields = list(fields)
        self._index = {f.name.lower(): i for i, f in enumerate(self.fields)}
        if len(self._index) != len(self.fields):
            names = [f.name for f in self.fields]
            raise AnalysisError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, *pairs: tuple[str, DataType]) -> "Schema":
        """Shorthand: ``Schema.of(("url", STRING), ("hits", INT))``."""
        return cls(Field(name, data_type) for name, data_type in pairs)

    @classmethod
    def from_rows(cls, names: list[str], rows: list[tuple]) -> "Schema":
        """Infer a schema from sample rows (schema-on-read)."""
        if not rows:
            return cls(Field(name, STRING) for name in names)
        sample = rows[0]
        if len(sample) != len(names):
            raise AnalysisError(
                f"row width {len(sample)} does not match {len(names)} names"
            )
        return cls(
            Field(name, infer_type(value))
            for name, value in zip(names, sample)
        )

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    @property
    def types(self) -> list[DataType]:
        return [f.data_type for f in self.fields]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise AnalysisError(
                f"unknown column {name!r}; available: {self.names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def select(self, names: list[str]) -> "Schema":
        return Schema(self.field(name) for name in names)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __repr__(self) -> str:
        inner = ", ".join(str(f) for f in self.fields)
        return f"Schema({inner})"
