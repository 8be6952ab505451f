"""Columnar partitions: the unit Shark's memstore caches (Section 3.2).

A :class:`ColumnarPartition` is what one loading task produces from a split
of rows: each column as its bytes in the one column format (the tagged
columns an exchange ships, :mod:`repro.columnar.serde`), per-column
statistics, and a memo of the columns decoded so far.  From Spark's point
of view it is a single record (one object), which is exactly the trick the
paper describes in Section 7.1 — Shark gets columnar storage "without
modifying the Spark runtime by simply representing a block of tuples as a
single Spark record".
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Optional, Sequence

from repro.columnar.analysis import ColumnAnalysis
from repro.columnar.batch import Vector, check_row_width, transpose_rows
from repro.columnar.serde import (
    HEADER_BYTES,
    SCHEMES,
    read_column,
    scheme_of,
    write_column,
)
from repro.columnar.stats import ColumnStats, PartitionStats
from repro.datatypes import Schema
from repro.errors import AnalysisError

__all__ = ["ColumnarPartition", "check_row_width", "transpose_rows"]


class ColumnarPartition:
    """One cached table partition in columnar, compressed form."""

    def __init__(
        self,
        schema: Schema,
        columns: list[bytes],
        stats: PartitionStats,
        num_rows: int,
    ):
        self.schema = schema
        self._columns = columns
        self.stats = stats
        self.num_rows = num_rows
        self._decoded: dict[int, Vector] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, schema: Schema, rows: list[tuple], compress: bool = True
    ) -> "ColumnarPartition":
        """Marshal a split of rows into columns (the loading task of
        Section 3.3): a width-checked transpose into :meth:`from_columns`."""
        return cls.from_columns(
            schema, transpose_rows(rows, len(schema)), compress=compress
        )

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        compress: bool = True,
    ) -> "ColumnarPartition":
        """Encode one split given column-wise, each column as the
        smallest of its encodings (only the plain ones without
        ``compress``), and collect statistics per column.  Each column is
        analysed once; the writer and the statistics both read that one
        :class:`ColumnAnalysis`."""
        if len(columns) != len(schema) or len(set(map(len, columns))) > 1:
            raise AnalysisError(
                f"got {len(columns)} columns of lengths "
                f"{sorted(set(map(len, columns)))} for a table of width "
                f"{len(schema)}"
            )
        schemes = SCHEMES if compress else SCHEMES[:1]
        encoded: list[bytes] = []
        column_stats: dict[str, ColumnStats] = {}
        for field_, values in zip(schema.fields, columns):
            column = ColumnAnalysis(values, field_.data_type)
            encoded.append(write_column(column, schemes))
            column_stats[field_.name] = ColumnStats.from_values(column)

        return cls(
            schema=schema,
            columns=encoded,
            stats=PartitionStats(column_stats),
            num_rows=len(columns[0]) if columns else 0,
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, index: int) -> Vector:
        """One column's values, decoded on first use and then kept."""
        vector = self._decoded.get(index)
        if vector is None:
            vector = read_column(self._columns[index], self.num_rows)
            self._decoded[index] = vector
        return vector

    def column_by_name(self, name: str) -> Vector:
        return self.column(self.schema.index_of(name))

    def column_bytes(self, index: int) -> bytes:
        """One column as stored: its tagged bytes in the column format."""
        return self._columns[index]

    def compression_schemes(self) -> list[str]:
        return list(map(scheme_of, self._columns))

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def iter_rows(
        self, names: Optional[Sequence[str]] = None
    ) -> Iterator[tuple]:
        """Rows of the ``names`` columns (None: all, in schema order) as
        tuples of plain Python values."""
        if names is None:
            names = self.schema.names
        if not names:
            return repeat((), self.num_rows)
        return zip(
            *[self.column_by_name(name).to_python_list() for name in names]
        )

    def to_rows(self) -> list[tuple]:
        return list(self.iter_rows())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_footprint_bytes(self) -> int:
        """The block's length as one batch payload: the header and the
        bytes of its columns."""
        return HEADER_BYTES + sum(map(len, self._columns))

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        schemes = ",".join(self.compression_schemes())
        return (
            f"ColumnarPartition({self.num_rows} rows, "
            f"{len(self.schema)} cols [{schemes}], "
            f"{self.memory_footprint_bytes()} bytes)"
        )
