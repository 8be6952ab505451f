"""Batch-at-a-time column carriers for the vectorized operator pipeline.

A :class:`ColumnBatch` is the unit of work flowing between fused kernels:
a fixed set of column *entries* plus a logical row count.  Entries are
lazy — a :class:`LazyColumn` keeps a reference to the encoded block column
and the scan's selection vector, and only decodes (and gathers) when a
kernel actually touches the values.  That is the late-materialization
invariant: rows are only rebuilt as Python tuples at pipeline exits
(shuffle, join, sort, or result collection), and a column that is merely
*carried* through filters and projections is never decoded at all.

Values inside a batch follow the same conventions as decoded block
columns: primitives are numpy arrays (with an optional validity mask for
NULLs; DATE and TIMESTAMP as ``datetime64[D]`` / ``datetime64[us]``, so a
``date`` object exists only where a row leaves the engine), everything
else is a plain Python list with inline ``None``.  A
dictionary-encoded block column enters the batch *coded*
(:class:`CodedVector`: its codes plus the small dictionary), so kernels
can work on the distinct values and dense values appear only when a
kernel asks for them.
"""

from __future__ import annotations

import operator
import sys
from datetime import date, datetime
from itertools import repeat

from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.datatypes import DAYS, MICROS, datetime64_array
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.table import ColumnarPartition

__all__ = [
    "Vector", "CodedVector", "LazyColumn", "ColumnBatch", "count_rows",
    "not_null", "transpose_rows",
]


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


def not_null(values: Sequence[Any]) -> np.ndarray:
    """Boolean mask of the positions of ``values`` holding no NULL."""
    return np.fromiter(
        map(operator.is_not, values, repeat(None)),
        dtype=bool,
        count=len(values),
    )


class Vector:
    """One dense column of batch values.

    ``data`` is either a numpy array (primitives; positions where
    ``valid`` is False are NULL and hold unspecified garbage) or a Python
    list with inline ``None``.  ``valid`` is only ever paired with array
    data; ``valid is None`` over an array means no NULLs.
    """

    __slots__ = ("data", "valid")

    def __init__(self, data, valid: Optional[np.ndarray] = None):
        self.data = data
        self.valid = valid

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "Vector":
        """Python values as a batch column: one typed array (with a
        validity mask for NULLs) when they are all exactly ``int``,
        ``float``, ``bool``, ``date`` or naive ``datetime`` and fit it,
        the list itself otherwise — ``to_python_list()`` gives the values
        back unchanged."""
        if isinstance(values, np.ndarray):
            return cls(values)
        kinds = set(map(type, values))
        has_null = _NONE in kinds
        kinds.discard(_NONE)
        kind = kinds.pop() if len(kinds) == 1 else None
        dtype = _ARRAY_DTYPES.get(kind)
        if dtype is None:
            return cls(values if isinstance(values, list) else list(values))
        valid, filled = None, values
        if has_null:
            valid = not_null(values)
            zero = _ZEROS[kind]
            filled = [zero if value is None else value for value in values]
        try:
            if dtype.kind == "M":
                data = datetime64_array(filled, kind)
            else:
                data = np.array(filled, dtype=dtype)
        except OverflowError:  # an int beyond int64
            data = None
        if data is None:  # ... or a datetime with a zone or a fold
            return cls(list(values))
        return cls(data, valid)

    @property
    def is_array(self) -> bool:
        return isinstance(self.data, np.ndarray)

    def gather(self, indices: np.ndarray) -> "Vector":
        if isinstance(self.data, np.ndarray):
            valid = self.valid[indices] if self.valid is not None else None
            return Vector(self.data[indices], valid)
        return Vector(list(map(self.data.__getitem__, indices.tolist())))

    def slice(self, start: int, stop: int) -> "Vector":
        """Rows ``start:stop`` (a view of array data, not a copy)."""
        valid = self.valid[start:stop] if self.valid is not None else None
        return Vector(self.data[start:stop], valid)

    @staticmethod
    def concat(spans: Sequence[tuple["Vector", int, int]]) -> "Vector":
        """Rows ``start:stop`` of each ``(vector, start, stop)`` span, end
        to end.  Arrays of one dtype kind (one dtype, of datetime64s) stay
        an array; anything else meets as Python values, so no int turns
        into a float, and no date into a datetime, on the way."""
        if len(spans) == 1:
            vector, start, stop = spans[0]
            return vector.slice(start, stop)
        datas = [vector.data for vector, __, __ in spans]
        kinds = {
            data.dtype.kind if isinstance(data, np.ndarray) else None
            for data in datas
        }
        if len(kinds) != 1 or None in kinds or "O" in kinds or (
            "M" in kinds and len({data.dtype for data in datas}) > 1
        ):
            values: list = []
            for vector, start, stop in spans:
                values.extend(vector.slice(start, stop).to_python_list())
            return Vector(values)
        valid = None
        if any(vector.valid is not None for vector, __, __ in spans):
            valid = np.concatenate(
                [
                    np.ones(stop - start, dtype=bool)
                    if vector.valid is None
                    else vector.valid[start:stop]
                    for vector, start, stop in spans
                ]
            )
        data = np.concatenate(
            [data[start:stop] for data, (__, start, stop) in zip(datas, spans)]
        )
        return Vector(data, valid)

    def to_python_list(self) -> list:
        """Values as Python objects with inline None (row-path parity).

        ``ndarray.tolist()`` unboxes numpy scalars to exact Python
        ints/floats/bools/dates/datetimes, as
        ``ColumnarPartition.iter_rows`` does.
        """
        if not isinstance(self.data, np.ndarray):
            return list(self.data)
        values = self.data.tolist()
        if self.valid is not None:
            for index in np.flatnonzero(~self.valid).tolist():
                values[index] = None
        return values

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes: array buffers (``nbytes``) plus the validity
        mask, or the list shell plus per-object sizes for object columns."""
        if isinstance(self.data, np.ndarray):
            total = self.data.nbytes
            if self.valid is not None:
                total += self.valid.nbytes
            return total
        return sys.getsizeof(self.data) + sum(
            sys.getsizeof(value) for value in self.data if value is not None
        )


class CodedVector(Vector):
    """A column as ``dictionary[codes]``: one small dense
    :class:`Vector` of distinct entries plus a code per row.

    A kernel whose other operands are constants evaluates the
    ``len(dictionary)`` entries and returns a coded result over the same
    ``codes`` array; ``gather`` keeps the form.  ``data``/``valid`` — what
    every dense kernel reads — expand on first touch, once.
    """

    __slots__ = ("codes", "dictionary", "_dense")

    def __init__(self, codes: np.ndarray, dictionary: Vector):
        self.codes = codes
        self.dictionary = dictionary
        self._dense: Optional[Vector] = None

    def __len__(self) -> int:
        return len(self.codes)

    def _expand(self) -> Vector:
        if self._dense is None:
            self._dense = self.dictionary.gather(self.codes)
        return self._dense

    @property
    def data(self):
        return self._expand().data

    @property
    def valid(self):
        return self._expand().valid

    def gather(self, indices: np.ndarray) -> "CodedVector":
        return CodedVector(self.codes[indices], self.dictionary)

    def slice(self, start: int, stop: int) -> "CodedVector":
        return CodedVector(self.codes[start:stop], self.dictionary)

    def memory_footprint_bytes(self) -> int:
        """Codes and dictionary, plus the dense values once expanded."""
        total = self.codes.nbytes + self.dictionary.memory_footprint_bytes()
        if self._dense is not None:
            total += self._dense.memory_footprint_bytes()
        return total


_NONE = type(None)
#: Exact Python type of a column's values -> the array dtype holding them.
_ARRAY_DTYPES = {
    int: np.dtype(np.int64), float: np.dtype(np.float64),
    bool: np.dtype(np.bool_), date: DAYS, datetime: MICROS,
}
#: What a NULL slot of such an array is filled with, as a Python value.
_ZEROS = {
    kind: np.zeros((), dtype).item() for kind, dtype in _ARRAY_DTYPES.items()
}


class LazyColumn:
    """A batch entry that defers decoding an encoded block column.

    Holds (block, column index, selection).  ``vector()`` hands out the
    column's values, decoded once through the block's column memo, with
    the selection applied: coded when the block column is a dictionary
    shorter than the selection, dense otherwise.
    """

    __slots__ = ("block", "index", "selection", "_vector")

    def __init__(
        self,
        block: "ColumnarPartition",
        index: int,
        selection: Optional[np.ndarray],
    ):
        self.block = block
        self.index = index
        self.selection = selection
        self._vector: Optional[Vector] = None

    def __len__(self) -> int:
        if self.selection is not None:
            return len(self.selection)
        return self.block.num_rows

    def vector(self) -> Vector:
        if self._vector is None:
            full = self.block.column(self.index)
            coded = isinstance(full, CodedVector)
            if coded and len(full.dictionary) >= len(self):
                full = Vector(full.data, full.valid)
            if self.selection is not None:
                full = full.gather(self.selection)
            self._vector = full
        return self._vector

    def memory_footprint_bytes(self) -> int:
        """Heap bytes this entry pins right now: the decoded vector if it
        exists, otherwise the encoded column's bytes, plus the selection
        index array."""
        if self._vector is not None:
            total = self._vector.memory_footprint_bytes()
        else:
            total = len(self.block.column_bytes(self.index))
        if self.selection is not None:
            total += self.selection.nbytes
        return total


class ColumnBatch:
    """A selection-resolved batch: N columns x num_rows logical rows.

    Entries are :class:`LazyColumn` or :class:`Vector`; all share the same
    length (``num_rows``).  A filter kernel produces a new batch by
    gathering every entry through the kept indices — lazy entries stay
    lazy (the gather composes selections), so a fused
    filter->project->aggregate chain decodes only what it touches.
    """

    __slots__ = ("entries", "num_rows")

    def __init__(self, entries: list, num_rows: int):
        self.entries = entries
        self.num_rows = num_rows

    @classmethod
    def from_block(
        cls,
        block: "ColumnarPartition",
        column_indices: Sequence[int],
        selection: Optional[np.ndarray] = None,
    ) -> "ColumnBatch":
        num_rows = block.num_rows if selection is None else len(selection)
        entries = [
            LazyColumn(block, index, selection) for index in column_indices
        ]
        return cls(entries, num_rows)

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[Any]], num_rows: Optional[int] = None
    ) -> "ColumnBatch":
        """Columns of Python values (or arrays) as a batch of typed
        vectors; ``num_rows`` is needed only when there is no column."""
        if num_rows is None:
            num_rows = len(columns[0])
        return cls(list(map(Vector.from_values, columns)), num_rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], width: int) -> "ColumnBatch":
        """Row tuples transposed, once, into a batch."""
        return cls.from_columns(transpose_rows(rows, width), len(rows))

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The batches' rows end to end (all of one width; one of no rows
        may be of any — an empty partition has no column to tell it)."""
        if len(batches) > 1:
            batches = [b for b in batches if b.num_rows] or batches[:1]
        if len(batches) == 1:
            return batches[0]
        return cls.concat_slices(
            [(batch, 0, batch.num_rows) for batch in batches]
        )

    @classmethod
    def concat_slices(
        cls, spans: Sequence[tuple["ColumnBatch", int, int]]
    ) -> "ColumnBatch":
        """Rows ``start:stop`` of each ``(batch, start, stop)`` span, end
        to end, built a column at a time."""
        if not spans:
            return cls([], 0)
        return cls(
            [
                Vector.concat(
                    [(batch.vector(i), start, stop) for batch, start, stop in spans]
                )
                for i in range(len(spans[0][0].entries))
            ],
            sum(stop - start for __, start, stop in spans),
        )

    def __len__(self) -> int:
        return self.num_rows

    def vector(self, ordinal: int) -> Vector:
        entry = self.entries[ordinal]
        if isinstance(entry, LazyColumn):
            return entry.vector()
        return entry

    def vectors(self) -> list[Vector]:
        return [self.vector(i) for i in range(len(self.entries))]

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows ``start:stop`` (``0 <= start <= stop <= num_rows``) of
        every column, decoded columns as views."""
        return ColumnBatch(
            [vector.slice(start, stop) for vector in self.vectors()],
            stop - start,
        )

    def values(self, ordinals) -> list:
        """One Python value per row: the column's own values for an int
        ordinal, a tuple of the columns' values for a tuple of them."""
        if not self.num_rows:
            return []
        if isinstance(ordinals, int):
            return self.vector(ordinals).to_python_list()
        if not ordinals:
            return [()] * self.num_rows
        return list(
            zip(*[self.vector(i).to_python_list() for i in ordinals])
        )

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Keep only the given row positions (a filter kernel's output)."""
        gathered = []
        for entry in self.entries:
            if isinstance(entry, LazyColumn):
                if entry.selection is not None:
                    composed = entry.selection[indices]
                else:
                    composed = indices
                gathered.append(
                    LazyColumn(entry.block, entry.index, composed)
                )
            else:
                gathered.append(entry.gather(indices))
        return ColumnBatch(gathered, len(indices))

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes held across all entries (lazy entries count
        what they currently pin, not what decoding would cost)."""
        return sum(
            entry.memory_footprint_bytes() for entry in self.entries
        )

    def materialize_rows(self) -> list[tuple]:
        """Late materialization: rebuild Python row tuples where a row
        consumer takes over, matching the row path's value conventions
        exactly."""
        return self.values(tuple(range(len(self.entries))))


def count_rows(records: list) -> int:
    """Rows a task's records stand for: a partition that holds
    ColumnBatches counts their rows, any other one its elements."""
    if records and isinstance(records[0], ColumnBatch):
        return sum(map(len, records))
    return len(records)
