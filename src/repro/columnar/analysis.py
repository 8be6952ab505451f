"""The single column analysis of the load path (paper Section 3.3).

A loading task looks at each column of its split once and derives from
that look everything the store needs: the statistics map pruning
consults, the compression scheme, and the encoded column itself.
:class:`ColumnAnalysis` is that look.  Each fact — typed array, NULL
count, range, distinct values in first-occurrence order, run starts — is
computed the first time someone asks and then shared, so
``ColumnStats.from_values``, ``choose_scheme`` and the encoders never
rescan ``values``.

Whole-column builtins (``min``/``max``, ``dict.fromkeys``,
``map(operator.ne, ...)``) compare, hash and order values exactly like a
per-value ``<`` / ``set.add`` / ``!=`` loop would — NaN, ``-0.0`` and
``1 == 1.0 == True`` included — so they apply to every column.  The numpy
forms do not (``ndarray.min`` propagates NaN, an int32 array cannot tell
``True`` from ``1``), so they are used only for an *exact* column: INT /
BIGINT / DOUBLE whose values are all exactly ``int`` (resp. ``float``)
with no NULL, and a DATE / TIMESTAMP column, which has an array at all
only when its values are all exactly ``date`` (resp. naive ``datetime``).
What remains per-value is the range-comparability filter for columns
that mix Python types.
"""

from __future__ import annotations

import operator
from datetime import date, datetime
from functools import cached_property
from itertools import islice
from typing import Any, Optional, Sequence

import numpy as np

from repro.datatypes import (
    DAYS,
    MICROS,
    DataType,
    DateType,
    DoubleType,
    IntegerType,
    LongType,
    TimestampType,
    datetime64_array,
)

#: Types whose values can be range-compared for pruning.
_COMPARABLE = (int, float, str, date, datetime)


def range_comparable(value: Any) -> bool:
    return isinstance(value, _COMPARABLE) and not isinstance(value, bool)


def numpy_dtype_for(data_type: Optional[DataType]) -> Optional[np.dtype]:
    if isinstance(data_type, IntegerType):
        return np.dtype(np.int32)
    if isinstance(data_type, LongType):
        return np.dtype(np.int64)
    if isinstance(data_type, DoubleType):
        return np.dtype(np.float64)
    if isinstance(data_type, DateType):
        return DAYS
    if isinstance(data_type, TimestampType):
        return MICROS
    return None


class ColumnAnalysis:
    """Lazily computed, shared facts about one column of one partition."""

    def __init__(
        self, values: Sequence[Any], data_type: Optional[DataType] = None
    ):
        self.values = values
        self.data_type = data_type
        kinds = set(map(type, values))
        self.has_null = type(None) in kinds
        kinds.discard(type(None))
        #: The one Python type of the non-NULL values; None when there
        #: are none or several.
        self.kind = kinds.pop() if len(kinds) == 1 else None

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def present(self) -> Sequence[Any]:
        """The non-NULL values, in order."""
        if not self.has_null:
            return self.values
        return [value for value in self.values if value is not None]

    @property
    def null_count(self) -> int:
        return len(self.values) - len(self.present)

    @cached_property
    def array(self) -> Optional[np.ndarray]:
        """The column as one typed array: primitive type and no NULL (and,
        a datetime64 array coercing nothing, no value of another type)."""
        dtype = numpy_dtype_for(self.data_type)
        if dtype is None or self.has_null:
            return None
        if dtype.kind == "M":
            kind = date if dtype == DAYS else datetime
            if self.kind is not kind and len(self.values):
                return None
            return datetime64_array(self.values, kind)
        return np.asarray(self.values, dtype=dtype)

    @cached_property
    def exact(self) -> bool:
        """Does :attr:`array` hold exactly the values (no bool or
        int/float coerced on the way in), so numpy may answer for them?"""
        if self.array is None:
            return False
        kind = self.array.dtype.kind
        return kind == "M" or self.kind is (float if kind == "f" else int)

    @cached_property
    def bounds(self) -> tuple[Optional[Any], Optional[Any]]:
        """(minimum, maximum) over the range-comparable values."""
        if self.exact and self.array.dtype.kind in "iM" and len(self.array):
            # ``item()``: an int, or the date / datetime of a datetime64.
            return self.array.min().item(), self.array.max().item()
        if self.kind in _COMPARABLE:
            # One primitive type: min/max keep the first of equal values
            # and so do the distinct keys, so ranging over the keys gives
            # the same answer in fewer steps.
            candidates = self.distinct
            if self.has_null:
                candidates = [v for v in candidates if v is not None]
        else:
            # Mixed or non-primitive Python types: the per-value fallback
            # (equal values of different types, False and 0, differ here).
            candidates = [
                value for value in self.present if range_comparable(value)
            ]
        if not candidates:
            return None, None
        return min(candidates), max(candidates)

    @cached_property
    def distinct(self) -> Optional[dict]:
        """Distinct values (NULL included) as dict keys in first-occurrence
        order; None when a value is unhashable."""
        try:
            return dict.fromkeys(self.values)
        except TypeError:
            return None

    @cached_property
    def run_starts(self) -> np.ndarray:
        """Positions where a run of equal values begins."""
        values = self.values
        if not len(values):
            return np.zeros(0, dtype=np.intp)
        if self.exact:
            changed = self.array[1:] != self.array[:-1]
        else:
            changed = np.fromiter(
                map(operator.ne, islice(values, 1, None), values),
                dtype=bool,
                count=len(values) - 1,
            )
        return np.concatenate(([0], np.flatnonzero(changed) + 1))


def analyze(values, data_type: Optional[DataType] = None) -> ColumnAnalysis:
    """``values`` as a :class:`ColumnAnalysis`; one already made (by the
    loading task, to share across stats, scheme choice and encoding) is
    passed through."""
    if isinstance(values, ColumnAnalysis):
        return values
    return ColumnAnalysis(values, data_type)
