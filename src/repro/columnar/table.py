"""Columnar partitions: the unit Shark's memstore caches (Section 3.2).

A :class:`ColumnarPartition` is what one loading task produces from a split
(a ColumnBatch): each column, typed once, as its bytes in the one column
format (the tagged columns an exchange ships, :mod:`repro.columnar.serde`),
statistics read off the writer's profile of it, and a memo of the columns
decoded so far.  From Spark's point of view it is a single record (one
object), which is exactly the trick the paper describes in Section 7.1 —
Shark gets columnar storage "without modifying the Spark runtime by simply
representing a block of tuples as a single Spark record".
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Optional, Sequence

from repro.columnar.batch import ColumnBatch, Vector, transpose_rows
from repro.columnar.serde import (
    HEADER_BYTES,
    SCHEMES,
    plan_column,
    read_column,
    scheme_of,
)
from repro.columnar.stats import ColumnStats, PartitionStats
from repro.datatypes import Schema

__all__ = ["ColumnarPartition", "transpose_rows"]


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
        Section 3.3): a width-checked transpose into :meth:`from_batch`."""
        batch = ColumnBatch.from_rows(rows, len(schema))
        return cls.from_batch(schema, batch, compress=compress)

    @classmethod
    def from_batch(
        cls, schema: Schema, batch: ColumnBatch, compress: bool = True
    ) -> "ColumnarPartition":
        """Encode one split: each column typed once by its declared type
        (:meth:`ColumnBatch.typed`) and planned once, written as the
        smallest of its encodings (only the plain ones without
        ``compress``), its statistics read off the plan's profile."""
        schemes = SCHEMES if compress else SCHEMES[:1]
        encoded: list[bytes] = []
        column_stats: dict[str, ColumnStats] = {}
        batch = batch.typed(schema)
        for field_, vector in zip(schema.fields, batch.vectors()):
            column = plan_column(vector, field_.data_type)
            encoded.append(column.write(schemes))
            column_stats[field_.name] = ColumnStats.of(column)
        return cls(schema, encoded, PartitionStats(column_stats), len(batch))

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
