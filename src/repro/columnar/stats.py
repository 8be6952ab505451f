"""Per-partition column statistics for map pruning (paper Section 3.5).

While a loading task marshals rows into columns, it also records each
column's range and, for low-cardinality ("enum") columns, the exact set of
distinct values.  The statistics are shipped to the master and consulted at
query time: a partition whose statistics cannot satisfy the query's
predicates is pruned — no task is launched to scan it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.columnar.analysis import analyze, range_comparable

#: Keep exact distinct sets only up to this many values.
DISTINCT_LIMIT = 64


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
        """Statistics of one column (a sequence of values, or the loading
        task's :class:`~repro.columnar.analysis.ColumnAnalysis` of it)."""
        column = analyze(values)
        minimum, maximum = column.bounds
        distinct = column.distinct
        # Unhashable (complex types) or too many: no distinct tracking.
        if (
            distinct is not None
            and len(distinct) - column.has_null <= DISTINCT_LIMIT
        ):
            distinct_values = set(distinct)
            distinct_values.discard(None)
        else:
            distinct_values = None
        return cls(
            minimum, maximum, column.null_count, distinct_values, len(column)
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
        if self.minimum is None or not range_comparable(value):
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

    @classmethod
    def from_columns(
        cls, names: list[str], columns: list[list]
    ) -> "PartitionStats":
        return cls(
            {
                name: ColumnStats.from_values(values)
                for name, values in zip(names, columns)
            }
        )

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
