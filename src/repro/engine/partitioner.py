"""Partitioners: deterministic key -> reduce-partition assignment.

Determinism matters here: lineage-based recovery re-runs a map task and must
reproduce the same buckets, so partitioners hash with a stable function
rather than Python's salted ``hash``.
"""

from __future__ import annotations

import bisect
import zlib
from datetime import date, datetime
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.datatypes import datetime64_array, time_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.batch import ColumnBatch, Vector

_HASH_MASK = 0x7FFFFFFF
_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
#: Multiplier (2**64 / the golden ratio) whose product's top 31 bits are
#: the hash of a date or datetime number: the low bits of whole seconds
#: in microseconds are all zero, so the int rule would put every such
#: timestamp in reduce partition 0 of a power-of-two exchange.
_SPREAD = 0x9E3779B97F4A7C15
#: Fewer descents than this and :func:`stable_argsort` merges runs.
_PRESORTED_RUNS = 64


def stable_hash(key: Any) -> int:
    """A deterministic, process-independent hash for common key types.

    Python's built-in ``hash`` is salted per process for strings, which
    would make recomputed map tasks shuffle records to different reducers
    than the original run.  This hash is stable across runs.
    """
    if key is None:
        return 0
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, float):
        return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key) & 0x7FFFFFFF
    if isinstance(key, tuple):
        value = 0x345678
        for item in key:
            value = (value * 1000003) ^ stable_hash(item)
        return value & 0x7FFFFFFF
    if isinstance(key, date):
        # By its day number (microseconds for a datetime): what a
        # datetime64 column hashes without building the objects.
        try:
            return (time_number(key) * _SPREAD & _UINT64_MASK) >> 33
        except TypeError:  # a datetime with a zone
            pass
    return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF


def stable_hash_many(keys: Sequence[Any]) -> np.ndarray:
    """:func:`stable_hash` of every key in a batch, as an int64 array.

    Homogeneous batches hash column-wise in C: ints, dates and naive
    datetimes arithmetically, strings and bytes through one ``crc32``
    map, exact floats through the same map over their ``repr``, tuples
    of equal width by combining their columns (the multiply/xor
    recurrence only ever needs the low 31 bits, so it runs in wrapping
    uint64).  Anything else — None, mixed types, subclasses, ints beyond
    int64, ragged tuples — takes :func:`stable_hash` per key, so the two
    always agree.
    """
    kinds = set(map(type, keys))
    if kinds <= {int, bool}:
        try:
            return np.array(keys, dtype=np.int64) & _HASH_MASK
        except OverflowError:
            pass
    elif kinds == {str}:
        return _crc_column(map(str.encode, keys), len(keys))
    elif kinds == {bytes}:
        return _crc_column(keys, len(keys))
    elif kinds == {float}:
        return _crc_column(map(str.encode, map(repr, keys)), len(keys))
    elif kinds == {date} or kinds == {datetime}:
        array = datetime64_array(keys, kinds.pop())
        if array is not None:
            return _spread_times(array)
    elif kinds == {tuple} and len(set(map(len, keys))) == 1:
        return _combine_hashes(map(stable_hash_many, zip(*keys)), len(keys))
    return np.fromiter(map(stable_hash, keys), np.int64, len(keys))


def _combine_hashes(columns, count: int) -> np.ndarray:
    """:func:`stable_hash` of the tuples whose items hash to ``columns``."""
    value = np.full(count, 0x345678, dtype=np.uint64)
    for column in columns:
        value = (value * np.uint64(1000003)) ^ column.astype(np.uint64)
    return (value & np.uint64(_HASH_MASK)).astype(np.int64)


def stable_hash_vector(vector: "Vector") -> np.ndarray:
    """:func:`stable_hash` of every value of a batch column.  An integer,
    boolean or datetime64 array hashes arithmetically (0 in its NULL
    slots), a coded column by hashing its dictionary once; anything else
    is handed to :func:`stable_hash_many` as the Python values it stands
    for."""
    codes = getattr(vector, "codes", None)
    if codes is not None:
        return stable_hash_vector(vector.dictionary)[codes]
    data = vector.data
    if isinstance(data, np.ndarray) and data.dtype.kind in "ibM":
        if data.dtype.kind == "M":
            hashed = _spread_times(data)
        else:
            hashed = data.astype(np.int64) & _HASH_MASK
        if vector.valid is not None:
            hashed = np.where(vector.valid, hashed, 0)
        return hashed
    return stable_hash_many(vector.to_python_list())


def _spread_times(array: np.ndarray) -> np.ndarray:
    """:func:`stable_hash` of the values of a datetime64 array."""
    product = array.view(np.uint64) * np.uint64(_SPREAD)  # wraps, as & does
    return (product >> np.uint64(33)).astype(np.int64)


def _crc_column(encoded, count: int) -> np.ndarray:
    return np.fromiter(map(zlib.crc32, encoded), np.int64, count) & _HASH_MASK


def ordered_array(vector: "Vector") -> "np.ndarray | None":
    """The column's array when numpy orders it exactly as Python orders
    its values: NULL-free, integer, datetime64 or NaN-free float; None
    otherwise."""
    data = vector.data
    if not isinstance(data, np.ndarray) or vector.valid is not None:
        return None
    kind = data.dtype.kind
    if kind in "iM" or (kind == "f" and not np.isnan(data).any()):
        return data
    return None


def stable_argsort(data: np.ndarray) -> np.ndarray:
    """``np.argsort(data, kind="stable")`` of an :func:`ordered_array`.
    Data made of a few sorted runs (a reduce partition: slices of sorted
    map outputs, end to end) takes numpy's stable sort, which merges
    runs; anything else the unstable sort, several times faster on
    shuffled data, after which each run of equal keys is put back in
    position order by one sort of distinct (run, position) numbers."""
    if data.dtype.kind == "M":
        data = data.view(np.int64)
    if np.count_nonzero(data[1:] < data[:-1]) < _PRESORTED_RUNS:
        return np.argsort(data, kind="stable")
    order = np.argsort(data)
    ranked = data[order]
    ties = ranked[1:] == ranked[:-1]
    if not ties.any():
        return order
    runs = np.concatenate(([0], np.cumsum(~ties)))
    return order[np.argsort(runs * len(data) + order)]


def columns_at(
    batch: "ColumnBatch", ordinals: Sequence[int], rows: "np.ndarray | None"
) -> list[list]:
    """The Python values of the columns at ``ordinals``, of the rows at
    positions ``rows`` (of every row: None)."""
    if not batch.num_rows:  # (maybe no column to read from)
        return [[] for __ in ordinals]
    return [
        (vector if rows is None else vector.gather(rows)).to_python_list()
        for vector in map(batch.vector, ordinals)
    ]


def ordered_bounds(bounds: Sequence[Any], data: np.ndarray) -> "np.ndarray | None":
    """Range bounds as an array ``np.searchsorted`` can bisect ``data``
    on exactly as ``bisect`` would the Python values: every bound is of
    ``data``'s own Python type (and fits it, and is no NaN)."""
    want = type(np.zeros((), data.dtype).item())
    if not all(type(bound) is want for bound in bounds):
        return None
    if data.dtype.kind == "M":
        return datetime64_array(bounds, want)
    try:
        array = np.array(
            bounds, dtype=np.int64 if want is int else np.float64
        )
    except OverflowError:
        return None
    if want is float and np.isnan(array).any():
        return None
    return array


class Partitioner:
    """Maps a record key to a partition index in [0, num_partitions)."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_many(self, keys: Sequence[Any]) -> list[int]:
        """Partition index of every key of a batch, in key order; always
        equal to ``[self.partition(key) for key in keys]``."""
        return [self.partition(key) for key in keys]

    def partition_batch(self, batch: "ColumnBatch", key) -> np.ndarray:
        """Partition index of every row of ``batch`` keyed by its ``key``
        columns (one ordinal: the column's values are the keys; a tuple
        of ordinals: tuples of them); always equal to
        ``partition_many(batch.values(key))``."""
        return np.asarray(
            self.partition_many(batch.values(key)), dtype=np.int64
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Shuffle-join / group-by partitioner: stable hash modulo N."""

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def partition_many(self, keys: Sequence[Any]) -> list[int]:
        return (stable_hash_many(keys) % self.num_partitions).tolist()

    def partition_batch(self, batch: "ColumnBatch", key) -> np.ndarray:
        if isinstance(key, int):
            hashed = stable_hash_vector(batch.vector(key))
        else:
            hashed = _combine_hashes(
                [stable_hash_vector(batch.vector(i)) for i in key],
                batch.num_rows,
            )
        return hashed % self.num_partitions

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Orders keys into contiguous ranges; used by sortBy.

    Bounds are picked from a sample of the sort's own map output
    (``RDD.sort_batches``); keys <= bounds[i] land in partition i.
    """

    def __init__(self, bounds: Sequence[Any], ascending: bool = True):
        super().__init__(len(bounds) + 1)
        self._bounds = list(bounds)
        self._ascending = ascending

    def partition(self, key: Any) -> int:
        index = bisect.bisect_left(self._bounds, key)
        if self._ascending:
            return index
        return self.num_partitions - 1 - index

    def partition_many(self, keys: Sequence[Any]) -> list[int]:
        indices = map(partial(bisect.bisect_left, self._bounds), keys)
        if self._ascending:
            return list(indices)
        last = self.num_partitions - 1
        return [last - index for index in indices]

    def keys_at(
        self, batch: "ColumnBatch", key, rows: "np.ndarray | None" = None
    ) -> list:
        """The keys this partitioner places, of the rows of ``batch`` at
        positions ``rows`` (of every row: None) — here the ``key``
        columns' values."""
        if isinstance(key, int):
            return columns_at(batch, (key,), rows)[0]
        return list(zip(*columns_at(batch, key, rows)))

    def _array_ids(self, batch: "ColumnBatch", key) -> "np.ndarray | None":
        """Partition ids by one ``searchsorted`` of a numeric key array,
        when one stands in for the keys; None otherwise."""
        if not batch.num_rows or not isinstance(key, int):
            return None
        data = ordered_array(batch.vector(key))
        bounds = None if data is None else ordered_bounds(self._bounds, data)
        if bounds is None:
            return None
        indices = np.searchsorted(bounds, data, side="left")
        if self._ascending:
            return indices
        return self.num_partitions - 1 - indices

    def partition_batch(self, batch: "ColumnBatch", key) -> np.ndarray:
        ids = self._array_ids(batch, key)
        if ids is None:
            ids = self.partition_many(self.keys_at(batch, key))
        return np.asarray(ids, dtype=np.int64)

    def cut(self, run: "ColumnBatch", key) -> list[int]:
        """Bucket offsets of a run already in this partitioner's order,
        where every bucket is one slice: ``offsets[i]`` is the first row
        placed in partition ``i`` or later.  A numeric key array is
        placed whole; otherwise a binary search over the rows builds a
        key only at the rows it probes."""
        rows = run.num_rows
        if self.num_partitions == 1:
            return [0, rows]
        ids = self._array_ids(run, key)
        if ids is not None:
            return np.searchsorted(
                ids, np.arange(self.num_partitions + 1), side="left"
            ).tolist()

        def placed(row: int) -> int:
            return self.partition(self.keys_at(run, key, np.array([row]))[0])

        offsets = [0]
        for partition in range(1, self.num_partitions):
            offsets.append(
                bisect.bisect_left(
                    range(rows), partition, offsets[-1], key=placed
                )
            )
        return offsets + [rows]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and self._bounds == other._bounds
            and self._ascending == other._ascending
        )

    def __hash__(self) -> int:
        return hash(("RangePartitioner", tuple(self._bounds), self._ascending))

    def __repr__(self) -> str:
        return f"RangePartitioner({len(self._bounds) + 1} partitions)"


class FunctionPartitioner(Partitioner):
    """Partitions with an arbitrary user function (used by co-partitioning).

    Equality contract: two FunctionPartitioners are equal when they have
    the same ``num_partitions`` and the same ``label``.  The label is the
    caller's promise that the functions partition identically — labelled
    partitioners built in different sessions (or from distinct-but-equal
    lambdas) compare equal, so co-partitioned join detection works across
    plan rebuilds.  Unlabelled partitioners fall back to function identity
    (``fn is fn``): safe, but never equal across sessions.
    """

    def __init__(
        self,
        num_partitions: int,
        fn: Callable[[Any], int],
        name: str = "",
        label: str | None = None,
    ):
        super().__init__(num_partitions)
        self._fn = fn
        self._name = name or getattr(fn, "__name__", "fn")
        self.label = label

    def _key(self) -> Any:
        """Identity key: the caller's label, or function identity."""
        return self.label if self.label is not None else id(self._fn)

    def partition(self, key: Any) -> int:
        return self._fn(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionPartitioner)
            and self.num_partitions == other.num_partitions
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash(
            ("FunctionPartitioner", self.num_partitions, self._key())
        )

    def __repr__(self) -> str:
        return f"FunctionPartitioner({self.num_partitions}, {self._name})"
