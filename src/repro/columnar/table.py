"""Columnar partitions: the unit Shark's memstore caches (Section 3.2).

A :class:`ColumnarPartition` is what one loading task produces from a split
of rows: per-column encoded arrays, per-column statistics, and a compact
footprint.  From Spark's point of view it is a single record (one object),
which is exactly the trick the paper describes in Section 7.1 — Shark gets
columnar storage "without modifying the Spark runtime by simply
representing a block of tuples as a single Spark record".
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.columnar.analysis import ColumnAnalysis
from repro.columnar.compression import (
    DEFAULT_DICTIONARY_THRESHOLD,
    PLAIN,
    EncodedColumn,
    choose_scheme,
)
from repro.columnar.stats import ColumnStats, PartitionStats
from repro.datatypes import Schema
from repro.errors import AnalysisError


def check_row_width(rows: Sequence[Sequence], width: int) -> None:
    """Reject rows narrower or wider than the table: transposing with
    ``zip(*rows)`` would silently drop the values past the shortest."""
    widths = set(map(len, rows))
    widths.discard(width)
    if widths:
        raise AnalysisError(
            f"row width {min(widths)} != table width {width}"
        )


def transpose_rows(rows: Sequence[Sequence], width: int) -> list[tuple]:
    """The ``width`` columns of ``rows``, each one tuple."""
    check_row_width(rows, width)
    return list(zip(*rows)) if rows else [()] * width


class ColumnarPartition:
    """One cached table partition in columnar, compressed form."""

    def __init__(
        self,
        schema: Schema,
        encoded_columns: list[EncodedColumn],
        stats: PartitionStats,
        num_rows: int,
    ):
        self.schema = schema
        self._encoded = encoded_columns
        self.stats = stats
        self.num_rows = num_rows
        self._decoded_cache: dict[int, Sequence[Any]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: list[tuple],
        compress: bool = True,
        dictionary_threshold: Optional[int] = None,
    ) -> "ColumnarPartition":
        """Marshal a split of rows into columns (the loading task of
        Section 3.3): a width-checked transpose into :meth:`from_columns`."""
        return cls.from_columns(
            schema,
            transpose_rows(rows, len(schema)),
            compress=compress,
            dictionary_threshold=dictionary_threshold,
        )

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        compress: bool = True,
        dictionary_threshold: Optional[int] = None,
    ) -> "ColumnarPartition":
        """Encode one split given column-wise, choosing compression and
        collecting statistics per column.  Each column is analysed once;
        the scheme choice, the encoder and the statistics all read that
        one :class:`ColumnAnalysis`."""
        if len(columns) != len(schema) or len(set(map(len, columns))) > 1:
            raise AnalysisError(
                f"got {len(columns)} columns of lengths "
                f"{sorted(set(map(len, columns)))} for a table of width "
                f"{len(schema)}"
            )
        if dictionary_threshold is None:
            dictionary_threshold = DEFAULT_DICTIONARY_THRESHOLD
        encoded: list[EncodedColumn] = []
        column_stats: dict[str, ColumnStats] = {}
        for field_, values in zip(schema.fields, columns):
            column = ColumnAnalysis(values, field_.data_type)
            scheme = PLAIN
            if compress:
                scheme = choose_scheme(
                    column, field_.data_type, dictionary_threshold
                )
            encoded.append(scheme.encode(column, field_.data_type))
            column_stats[field_.name] = ColumnStats.from_values(column)

        return cls(
            schema=schema,
            encoded_columns=encoded,
            stats=PartitionStats(column_stats),
            num_rows=len(columns[0]) if columns else 0,
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, index: int) -> Sequence[Any]:
        """Decoded values of one column (numpy array for primitives)."""
        cached = self._decoded_cache.get(index)
        if cached is None:
            cached = self._encoded[index].decode()
            self._decoded_cache[index] = cached
        return cached

    def column_by_name(self, name: str) -> Sequence[Any]:
        return self.column(self.schema.index_of(name))

    def encoded_column(self, index: int) -> EncodedColumn:
        return self._encoded[index]

    def compression_schemes(self) -> list[str]:
        return [column.scheme_name for column in self._encoded]

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def iter_rows(
        self, names: Optional[Sequence[str]] = None
    ) -> Iterator[tuple]:
        """Rows of the ``names`` columns (None: all, in schema order) as
        tuples of plain Python values (arrays unboxed by ``tolist``; list
        columns hold the loaded values as they are)."""
        if names is None:
            names = self.schema.names
        if not names:
            return repeat((), self.num_rows)
        columns = [self.column_by_name(name) for name in names]
        return zip(
            *[
                column.tolist() if isinstance(column, np.ndarray) else column
                for column in columns
            ]
        )

    def to_rows(self) -> list[tuple]:
        return list(self.iter_rows())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_footprint_bytes(self) -> int:
        """Compressed size plus fixed per-column metadata."""
        return sum(column.compressed_bytes for column in self._encoded) + (
            64 * len(self._encoded)
        )

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        schemes = ",".join(self.compression_schemes())
        return (
            f"ColumnarPartition({self.num_rows} rows, "
            f"{len(self.schema)} cols [{schemes}], "
            f"{self.memory_footprint_bytes()} bytes)"
        )
