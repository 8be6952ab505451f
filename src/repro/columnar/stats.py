"""Per-partition column statistics for map pruning (paper Section 3.5).

While a loading task marshals a split into columns, it also records each
column's range and, for low-cardinality ("enum") columns, the exact set of
distinct values, read off the typed column the writer stores.  A NaN is
in no range (every range comparison with it is false) but is a distinct
value.  The statistics are shipped to the master and consulted at query
time: a partition whose statistics cannot satisfy the query's predicates
is pruned — no task is launched to scan it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Any, Optional

import numpy as np

from repro.columnar.batch import Vector
from repro.columnar.serde import plan_column

#: Keep exact distinct sets only up to this many values.
DISTINCT_LIMIT = 64
#: Types whose values can be range-compared for pruning.
_COMPARABLE = (int, float, str, date, datetime)
#: Of those, the ones whose values all bound a range (no NaN).
_ORDERED = {int, str, date, datetime}


def _ranged(value: Any) -> bool:
    """Can ``value`` bound a range (comparable, and not NaN)?"""
    comparable = isinstance(value, _COMPARABLE) and not isinstance(value, bool)
    return comparable and value == value


@dataclass
class ColumnStats:
    """Range + small distinct set + null count for one column partition."""

    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    null_count: int = 0
    #: Exact distinct values while small; None once the limit is exceeded.
    distinct_values: Optional[set] = field(default_factory=set)
    row_count: int = 0

    @classmethod
    def from_values(cls, values) -> "ColumnStats":
        """Statistics of Python values, typed by their own types."""
        return cls.of(plan_column(Vector.from_values(values)))

    @classmethod
    def of(cls, column) -> "ColumnStats":
        """Statistics of a column as the writer plans it (``plan_column``):
        the distinct values are its profile's keys, which also price and
        write its dictionary; of 0.0 and -0.0 the first in row order
        stands for both.  Python values of no one type go value by value."""
        entries = column.profile()
        if entries is None:
            present = [value for value in column.values if value is not None]
            kinds = set(map(type, present))
            try:
                distinct = list(dict.fromkeys(present))
            except TypeError:  # unhashable (complex types)
                distinct = None
            ranged = present if distinct is None else distinct
            if len(kinds) != 1 or not kinds <= _ORDERED:
                ranged = list(filter(_ranged, ranged))
            nulls = len(column) - len(present)
        else:
            valid = column.valid
            nulls = 0 if valid is None else len(valid) - int(valid.sum())
            distinct = ranged = column.key_values(entries)
            if isinstance(distinct, np.ndarray):  # (strings are a list)
                kind = distinct.dtype.kind
                if kind == "f":
                    zeros = np.flatnonzero(distinct == 0)
                    if len(zeros) == 2:  # -0.0's key, then 0.0's
                        data = column.data
                        data = data if valid is None else data[valid]
                        first = np.signbit(data[data == 0][0])
                        distinct = np.delete(distinct, zeros[int(first)])
                    # A NaN is in no range; one of them is a distinct value.
                    nan = np.isnan(distinct)
                    ranged = distinct[~nan]
                    distinct = np.concatenate([ranged, distinct[nan][:1]])
                bounded = len(ranged) and kind != "b"
                ends = [ranged.argmin(), ranged.argmax()] if bounded else []
                ranged = ranged[ends].tolist()
                distinct = distinct[: DISTINCT_LIMIT + 1].tolist()
        if distinct is not None and len(distinct) > DISTINCT_LIMIT:
            distinct = None
        return cls(
            min(ranged) if ranged else None,
            max(ranged) if ranged else None,
            nulls,
            None if distinct is None else set(distinct),
            len(column),
        )

    # -- pruning predicates -------------------------------------------------
    def may_contain(self, value: Any) -> bool:
        """Could ``column = value`` hold for any row in this partition?"""
        if self.row_count == 0:
            # Never-observed stats (a placeholder published before the
            # load, or reset since): cannot prune, same as may_overlap.
            return True
        if self.distinct_values is not None:
            return value in self.distinct_values
        if self.minimum is None or not _ranged(value):
            return True
        try:
            return self.minimum <= value <= self.maximum
        except TypeError:
            return True

    def may_overlap(
        self, low: Optional[Any] = None, high: Optional[Any] = None,
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> bool:
        """Could any row fall in [low, high] (open-ended when None)?"""
        if self.minimum is None:
            # No comparable values observed; cannot prune.
            return self.row_count > self.null_count or self.row_count == 0
        try:
            if low is not None:
                if low_inclusive and self.maximum < low:
                    return False
                if not low_inclusive and self.maximum <= low:
                    return False
            if high is not None:
                if high_inclusive and self.minimum > high:
                    return False
                if not high_inclusive and self.minimum >= high:
                    return False
        except TypeError:
            return True
        return True

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        merged = ColumnStats(
            null_count=self.null_count + other.null_count,
            row_count=self.row_count + other.row_count,
        )
        candidates = [
            value for value in (self.minimum, other.minimum) if value is not None
        ]
        merged.minimum = min(candidates) if candidates else None
        candidates = [
            value for value in (self.maximum, other.maximum) if value is not None
        ]
        merged.maximum = max(candidates) if candidates else None
        if self.distinct_values is not None and other.distinct_values is not None:
            union = self.distinct_values | other.distinct_values
            merged.distinct_values = union if len(union) <= DISTINCT_LIMIT else None
        else:
            merged.distinct_values = None
        return merged


class PartitionStats:
    """All column statistics for one stored partition."""

    def __init__(self, columns: dict[str, ColumnStats]):
        self._columns = {name.lower(): stats for name, stats in columns.items()}

    def column(self, name: str) -> Optional[ColumnStats]:
        return self._columns.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._columns

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def merge(self, other: "PartitionStats") -> "PartitionStats":
        merged: dict[str, ColumnStats] = {}
        for name, stats in self._columns.items():
            other_stats = other.column(name)
            merged[name] = stats.merge(other_stats) if other_stats else stats
        for name, stats in other._columns.items():
            if name not in merged:
                merged[name] = stats
        return PartitionStats(merged)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        for name, stats in self._columns.items():
            parts.append(f"{name}: [{stats.minimum}, {stats.maximum}]")
        return f"PartitionStats({'; '.join(parts)})"
