"""Physical operators: logical nodes lowered to RDD transformations.

Each helper takes child RDDs and returns a new RDD.  One thing flows
between SQL operators: a partition holds ColumnBatches
(:mod:`repro.columnar.batch`) — over a cached scan, over an external
scan's decoded columns, and above every exchange — and row tuples are
built once, by :func:`rows_of`, where a plan hands its result to a row
consumer.  There is one family of operators and one way to run them:
the kernels of :mod:`repro.sql.codegen` and the array forms of the
aggregate folds, which fall back to ``fn.update`` / ``merge`` /
``finish`` only where a column has no array form.  The
planner (:mod:`repro.sql.planner`) decides *which* helper to use (join
strategies, PDE, map pruning) and compiles the expressions; the helpers
only build dataflow.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    NamedTuple,
    Optional,
    Sequence,
)

import numpy as np

from repro.columnar.batch import CodedVector, ColumnBatch, Vector, not_null
from repro.columnar.serde import BatchSerde
from repro.columnar.table import ColumnarPartition, transpose_rows
from repro.costmodel.models import SOURCE_MEMORY
from repro.datatypes import (
    DataType,
    DateType,
    DoubleType,
    IntegerType,
    LongType,
    TimestampType,
    time_number,
)
from repro.engine.dependencies import (
    BatchShuffleDependency,
    OneToOneDependency,
    ShuffleDependency,
)
from repro.engine.memory import DRIVER_WORKER, EXECUTION
from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    columns_at,
    ordered_array,
    ordered_bounds,
    stable_argsort,
)
from repro.engine.rdd import RDD, MapPartitionsRDD, PrunedRDD, ShuffledRDD
from repro.engine.spill import record_run_written
from repro.engine.task import current_task_context
from repro.obs.planquality import OperatorStamp, record_operator_rows
from repro.sql.expressions import BoundExpr
from repro.sql.functions import (
    AggregateFunction,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.sql.logical import AggregateSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.shuffle import MapOutputStats
    from repro.engine.task import TaskContext
    from repro.sql.catalog import TableEntry

_SERDE = BatchSerde()
#: What a chain link, a key or an argument kernel is: batch -> Vector
#: (``compile_vector_expression``) or batch -> keep-mask (``..._predicate``).
Kernel = Callable[[ColumnBatch], Any]


# ---------------------------------------------------------------------------
# Where batches come from, and where rows leave
# ---------------------------------------------------------------------------


def _scanned_bytes(
    block: ColumnarPartition, projected: Optional[list[str]]
) -> int:
    """Encoded bytes a scan of ``projected`` columns (None: all) reads
    from one memstore block; rejects a parent element that is not one."""
    if not isinstance(block, ColumnarPartition):
        raise TypeError(
            f"memstore partition holds {type(block).__name__}, "
            f"expected ColumnarPartition"
        )
    if projected is None:
        return block.memory_footprint_bytes()
    return sum(
        len(block.column_bytes(block.schema.index_of(name)))
        for name in projected
    )



def _counted(
    batches: RDD,
    op: Optional[OperatorStamp],
    name: str,
    run: Callable[[list], list] = list,
    preserves_partitioning: bool = False,
) -> RDD:
    """``run`` over every partition of an RDD of batches, its output rows
    credited to ``op``'s plan-quality stamp."""
    key = None if op is None else op.key

    def counted(_: int, part: list) -> list:
        out = run(part)
        if key is not None:
            record_operator_rows(key, sum(map(len, out)))
        return out

    return MapPartitionsRDD(
        batches, counted,
        preserves_partitioning=preserves_partitioning, name=name,
    )


def _narrowed(batch: ColumnBatch, width: int) -> ColumnBatch:
    """The first ``width`` columns: the row, without the key columns an
    exchange computed beside it."""
    if len(batch.entries) <= width:
        return batch
    return ColumnBatch(batch.entries[:width], batch.num_rows)


def rows_of(batches: RDD) -> RDD:
    """Late materialization, as an operator: the rows of an RDD whose
    partitions hold ColumnBatches.  The one place a plan builds tuples."""

    def run(_: int, part: list) -> list:
        rows: list[tuple] = []
        for batch in part:
            rows.extend(batch.materialize_rows())
        return rows

    # Named after what it reads: a stage is known by its last operator.
    return MapPartitionsRDD(batches, run, name=batches.name)


def values_batches(
    ctx: "EngineContext",
    rows: list[tuple],
    width: int,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Literal rows (a VALUES list; none, for a cached table that was
    never loaded) as one partition of one batch."""
    return _counted(
        ctx.parallelize(rows, num_partitions=1),
        op,
        "values",
        lambda part: [ColumnBatch.from_rows(part, width)],
    )


def external_batches(
    columns: RDD, indices: list[int], op: OperatorStamp
) -> RDD:
    """An external table's scan (``HdfsRDD.as_columns()``: one record a
    block, its decoded columns) as batches of the columns at ``indices``
    — no tuple is built to be transposed back."""

    def run(part: list) -> list:
        return [
            ColumnBatch.from_columns(
                [block[i] for i in indices], len(block[0])
            )
            for block in part
        ]

    return _counted(columns, op, "external_scan", run)


# ---------------------------------------------------------------------------
# Grouping and aggregation
# ---------------------------------------------------------------------------


def _vector_validity(vector, n: int):
    """Positions holding non-NULL values, or None when all are valid."""
    data = vector.data
    if isinstance(data, np.ndarray):
        return vector.valid
    return not_null(data)


def _factorize(vector) -> tuple[np.ndarray, int]:
    """(id per row, number of ids) with equal ids exactly where a Python
    dict would find equal keys (``1 == 1.0 == True``; NULL is a key;
    each NaN object is its own key)."""
    if isinstance(vector, CodedVector):
        # Entries of a computed dictionary (SUBSTR results) may repeat.
        ids, distinct = _factorize(vector.dictionary)
        return ids[vector.codes], distinct
    data = vector.data
    if (
        isinstance(data, np.ndarray)
        and data.dtype != object
        and vector.valid is None
        and not (
            np.issubdtype(data.dtype, np.floating) and np.isnan(data).any()
        )
    ):
        return _renumber(data)
    values = vector.to_python_list()
    id_of = {value: i for i, value in enumerate(dict.fromkeys(values))}
    ids = np.fromiter(
        map(id_of.__getitem__, values), dtype=np.int64, count=len(values)
    )
    return ids, len(id_of)


def _renumber(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """The same partition of the rows under dense codes ``0..k-1``, in
    the order of their values."""
    if codes.dtype.kind == "M":  # sorts as its numbers, several times faster
        codes = codes.view(np.int64)
    if codes.dtype.kind in "iu" and len(codes):
        # Few values apart: a table over the range, not a sort.
        low, high = int(codes.min()), int(codes.max())
        if high - low < 4 * len(codes):
            offsets = codes - low
            seen = np.zeros(high - low + 1, dtype=np.int64)
            seen[offsets] = 1
            dense = np.cumsum(seen)
            return dense[offsets] - 1, int(dense[-1])
    uniq, dense = np.unique(codes, return_inverse=True)
    return dense, len(uniq)


def _group_rows(vectors: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(group id per row, first row of each group) of ``n`` rows keyed by
    ``vectors``; groups are numbered by their first row.  Group identity
    is resolved batch-at-a-time by factorizing each key column to small
    integers (:func:`_factorize`: a coded column never decodes) and
    combining them into one composite code per row.  No key: one group."""
    if not vectors:
        return np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    # One composite code per row, kept small enough to index a table
    # of first rows: renumbered densely (at most n codes) whenever
    # the product of the cardinalities outgrows it.
    limit = max(4 * n, 256)
    codes, size = _factorize(vectors[0])
    for vector in vectors[1:]:
        ids, distinct = _factorize(vector)
        if size * distinct > limit:
            codes, size = _renumber(codes)
        codes = codes * distinct + ids
        size *= distinct
    if size > limit:
        codes, size = _renumber(codes)
    first = np.full(size, n)
    np.minimum.at(first, codes, np.arange(n))
    present = np.flatnonzero(first < n)
    order = np.argsort(first[present])
    gid_of = np.empty(size, dtype=np.int64)
    gid_of[present[order]] = np.arange(len(order))
    return gid_of[codes], first[present[order]]




# -- aggregate partials as batches ------------------------------------------
#
# A partial aggregation result is a batch: the group key columns, then
# the accumulator columns of each aggregate — COUNT an int column,
# SUM/MIN/MAX a nullable column of the argument's type, AVG its sum and
# its count, a DISTINCT or any other aggregate one object column of
# ``fn.initial()``-shaped accumulators.  Both modes ship this layout.


def _acc_width(fn: AggregateFunction) -> int:
    return 2 if isinstance(fn, AvgAggregate) and not fn.distinct else 1


def _acc_columns(fn: AggregateFunction, accs: Sequence) -> list[Vector]:
    """Accumulators of one aggregate, one per group, as batch columns."""
    if _acc_width(fn) == 2:
        totals, counts = transpose_rows(accs, 2)
        return [Vector.from_values(totals), Vector.from_values(counts)]
    return [Vector.from_values(accs)]


def _accs_of(fn: AggregateFunction, vectors: list[Vector]) -> list:
    """:func:`_acc_columns` back to Python accumulators."""
    if _acc_width(fn) == 2:
        return list(
            zip(vectors[0].to_python_list(), vectors[1].to_python_list())
        )
    return vectors[0].to_python_list()




def _numeric_data(vector, n: int, ordered: bool = False):
    """(values, group-able validity) when the column is a numeric array
    the grouped reductions can run on — or, for the ``ordered`` ones
    (MIN/MAX), a datetime64 array; None otherwise."""
    data = vector.data
    if not isinstance(data, np.ndarray):
        return None
    if not (ordered and data.dtype.kind == "M") and (
        data.dtype == np.bool_ or not np.issubdtype(data.dtype, np.number)
    ):
        return None
    return data, _vector_validity(vector, n)


def _masked(data: np.ndarray, valid, gids: np.ndarray):
    if valid is None:
        return data, gids
    return data[valid], gids[valid]


def _nullable(values: np.ndarray, counts: np.ndarray) -> Vector:
    """Per-group results, NULL for the groups nothing contributed to."""
    present = counts > 0
    return Vector(values, None if present.all() else present)


def _grouped_count(vector, n: int, gids: np.ndarray, k: int) -> Vector:
    """Non-NULL rows per group (all rows: ``vector`` None)."""
    valid = None if vector is None else _vector_validity(vector, n)
    return Vector(
        np.bincount(gids if valid is None else gids[valid], minlength=k)
    )


def _grouped_sum(numeric, gids: np.ndarray, k: int) -> Optional[Vector]:
    sub_data, sub_gids = _masked(*numeric, gids)
    counts = np.bincount(sub_gids, minlength=k)
    if np.issubdtype(sub_data.dtype, np.integer):
        # Exact integer sums; hand over to the Python loop if a 64-bit
        # accumulator could overflow where Python ints would not.
        if sub_data.size and max(
            abs(int(sub_data.max())), abs(int(sub_data.min()))
        ) > (2**62) // max(int(counts.max()), 1):
            return None
        sums = np.zeros(k, dtype=np.int64)
        np.add.at(sums, sub_gids, sub_data.astype(np.int64, copy=False))
    else:
        # np.bincount adds weights in input order: the same
        # left-to-right accumulation sequence as the row path ...
        sums = np.bincount(sub_gids, weights=sub_data, minlength=k)
        if np.signbit(sub_data).any():
            # ... but from 0.0, where the row path starts from the first
            # value: a group of nothing but -0.0 sums to -0.0 there.
            zeros = np.bincount(
                sub_gids[np.signbit(sub_data) & (sub_data == 0)], minlength=k
            )
            sums[(zeros == counts) & (counts > 0)] = -0.0
    return _nullable(sums, counts)


def _grouped_avg(numeric, gids: np.ndarray, k: int) -> Optional[list]:
    sub_data, sub_gids = _masked(*numeric, gids)
    if sub_data.size and np.issubdtype(sub_data.dtype, np.integer) and max(
        abs(int(sub_data.max())), abs(int(sub_data.min()))
    ) > 2**52:
        # Float64 weights would round large ints differently per batch.
        return None
    return [
        Vector(np.bincount(sub_gids, weights=sub_data, minlength=k)),
        Vector(np.bincount(sub_gids, minlength=k)),
    ]


def _grouped_extreme(
    minimum: bool, numeric, gids: np.ndarray, k: int
) -> Optional[Vector]:
    sub_data, sub_gids = _masked(*numeric, gids)
    is_float = np.issubdtype(sub_data.dtype, np.floating)
    if is_float and (
        np.isnan(sub_data).any()
        or (np.signbit(sub_data) & (sub_data == 0)).any()
    ):
        # NaN poisons np.minimum/maximum but not Python comparisons, and
        # between 0.0 and -0.0 they keep neither the first nor the last.
        return None
    if is_float:
        fill = np.inf if minimum else -np.inf
        extremes = np.full(k, fill, dtype=np.float64)
    else:
        info = np.iinfo(np.int64)
        fill = info.max if minimum else info.min
        extremes = np.full(k, fill, dtype=np.int64)
    # A datetime64 array reduces as its numbers and comes back as itself.
    dtype = sub_data.dtype
    if dtype.kind == "M":
        sub_data = sub_data.view(np.int64)
    (np.minimum if minimum else np.maximum).at(extremes, sub_gids, sub_data)
    if dtype.kind == "M":
        extremes = extremes.view(dtype)
    return _nullable(extremes, np.bincount(sub_gids, minlength=k))


def _folded(step, initial, values, gids: np.ndarray, k: int) -> list:
    """Row-order fold per group: exact semantics for any aggregate."""
    accs = [initial() for __ in range(k)]
    for g, value in zip(gids.tolist(), values):
        accs[g] = step(accs[g], value)
    return accs



def _merge_accs(
    fn: AggregateFunction,
    vectors: list[Vector],
    gids: np.ndarray,
    k: int,
) -> list[Vector]:
    """One aggregate's accumulator columns segment-reduced to one row
    per group, partials of a group merged in arrival order: by the
    grouped reductions where the columns have one, by ``fn.merge``
    otherwise."""
    n = len(gids)
    if not fn.distinct:
        ordered = isinstance(fn, (MinAggregate, MaxAggregate))
        numeric = [_numeric_data(vector, n, ordered) for vector in vectors]
        merged = None
        if any(item is None for item in numeric):
            pass
        elif isinstance(fn, CountAggregate):
            merged = _grouped_sum(numeric[0], gids, k)
            if merged is not None:
                merged = Vector(merged.data)  # no partial at all: 0, not NULL
        elif isinstance(fn, SumAggregate):
            merged = _grouped_sum(numeric[0], gids, k)
        elif isinstance(fn, (MinAggregate, MaxAggregate)):
            merged = _grouped_extreme(
                isinstance(fn, MinAggregate), numeric[0], gids, k
            )
        elif isinstance(fn, AvgAggregate):
            counts = _grouped_sum(numeric[1], gids, k)
            if counts is not None and numeric[0][1] is None:
                totals = np.bincount(gids, weights=numeric[0][0], minlength=k)
                return [Vector(totals), Vector(counts.data)]
        if merged is not None:
            return [merged]
    accs = _accs_of(fn, vectors)
    merged = [None] * k
    seen = [False] * k
    for g, acc in zip(gids.tolist(), accs):
        merged[g] = fn.merge(merged[g], acc) if seen[g] else acc
        seen[g] = True
    return _acc_columns(fn, merged)


def merge_partials(
    batch: ColumnBatch,
    num_keys: int,
    specs: list[AggregateSpec],
) -> ColumnBatch:
    """Partials of the same group merged into one, groups in
    first-occurrence order: the merge of every aggregation — a map task
    that saw several batches, the reduce side, a re-merge after a spill
    — and, with no aggregate at all, DISTINCT."""
    n = batch.num_rows
    if not n:
        return batch
    keys = [batch.vector(i) for i in range(num_keys)]
    gids, first_rows = _group_rows(keys, n)
    k = len(first_rows)
    if k >= n:
        return batch  # nothing shares a group, and the order is arrival's
    entries = [vector.gather(first_rows) for vector in keys]
    ordinal = num_keys
    for spec in specs:
        width = _acc_width(spec.function)
        entries.extend(
            _merge_accs(
                spec.function,
                [batch.vector(ordinal + i) for i in range(width)],
                gids,
                k,
            )
        )
        ordinal += width
    return ColumnBatch(entries, k)


def finish_partials(
    batch: ColumnBatch,
    num_keys: int,
    specs: list[AggregateSpec],
) -> ColumnBatch:
    """Merged partials to output rows: the keys, then each aggregate's
    ``finish`` — spared for COUNT/SUM/MIN/MAX, where it is the identity,
    and run as one division for AVG."""
    n = batch.num_rows
    if not n:
        return batch
    entries = [batch.vector(i) for i in range(num_keys)]
    ordinal = num_keys
    for spec in specs:
        fn = spec.function
        width = _acc_width(fn)
        vectors = [batch.vector(ordinal + i) for i in range(width)]
        ordinal += width
        if not fn.distinct and isinstance(
            fn, (CountAggregate, SumAggregate, MinAggregate, MaxAggregate)
        ):
            entries.append(vectors[0])
        elif width == 2 and all(
            isinstance(v.data, np.ndarray) and v.valid is None
            for v in vectors
        ):
            totals, counts = vectors[0].data, vectors[1].data
            entries.append(
                _nullable(totals / np.where(counts > 0, counts, 1), counts)
            )
        else:
            entries.append(
                Vector.from_values(
                    list(map(fn.finish, _accs_of(fn, vectors)))
                )
            )
    return ColumnBatch(entries, n)


class BatchAggregator:
    """Task-local hash aggregation over ColumnBatches.

    Every consumed batch becomes one partial batch (the layout above):
    per group, ``fn.update`` folded over its rows in order, or — where
    the argument column has one — the numpy reduction that accumulates
    in that same order.  ``finish`` merges the partials
    (:func:`merge_partials`) when there is more than one.  The pending
    partials are the task's spillable state: a spill encodes them as one
    run and ``finish`` reads the runs back, in order, into the merge.
    """

    owner = "batch_aggregate"

    def __init__(
        self,
        group_kernels: list,
        specs: list[AggregateSpec],
        arg_kernels: list,
    ):
        self.group_kernels = group_kernels
        self.specs = specs
        self.arg_kernels = arg_kernels
        self._partials: list[ColumnBatch] = []
        self._runs: list[bytes] = []
        self._charged = 0
        self._finishing = False
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.register_spillable(self)

    # -- building partials ----------------------------------------------
    def _partial(self, fn, kernel, batch, gids, k: int) -> list[Vector]:
        """Accumulator columns of one aggregate over one batch."""
        n = batch.num_rows
        vector = kernel(batch) if kernel is not None else None
        if not fn.distinct:
            if isinstance(fn, CountAggregate):
                counted = None if fn.count_star else vector
                return [_grouped_count(counted, n, gids, k)]
            numeric = None if vector is None else _numeric_data(
                vector, n, isinstance(fn, (MinAggregate, MaxAggregate))
            )
            columns = None
            if numeric is None:
                pass
            elif isinstance(fn, SumAggregate):
                columns = _grouped_sum(numeric, gids, k)
            elif isinstance(fn, AvgAggregate):
                columns = _grouped_avg(numeric, gids, k)
            elif isinstance(fn, (MinAggregate, MaxAggregate)):
                columns = _grouped_extreme(
                    isinstance(fn, MinAggregate), numeric, gids, k
                )
            if columns is not None:
                return columns if isinstance(columns, list) else [columns]
        values = repeat(None, n) if vector is None else vector.to_python_list()
        return _acc_columns(
            fn, _folded(fn.update, fn.initial, values, gids, k)
        )

    def consume(self, batch) -> None:
        keys = [kernel(batch) for kernel in self.group_kernels]
        gids, first_rows = _group_rows(keys, batch.num_rows)
        k = len(first_rows)
        if not k:
            return
        entries = [vector.gather(first_rows) for vector in keys]
        for spec, kernel in zip(self.specs, self.arg_kernels):
            entries.extend(
                self._partial(spec.function, kernel, batch, gids, k)
            )
        partial = ColumnBatch(entries, k)
        self._partials.append(partial)
        task_ctx = current_task_context()
        if task_ctx is None:
            return
        # Charge the new partial's heap bytes to the running task's
        # execution pool.  The reservation may itself arbitrate and
        # spill the partials — this one included, and then its charge
        # stands for nothing.
        charged = task_ctx.reserve_memory(
            self.owner, partial.memory_footprint_bytes()
        )
        if self._partials:
            self._charged += charged
        else:
            task_ctx.release_memory(self.owner, charged)

    def _merged(self, pieces: list[ColumnBatch]) -> ColumnBatch:
        if len(pieces) == 1:
            return pieces[0]
        return merge_partials(
            ColumnBatch.concat(pieces),
            len(self.group_kernels),
            self.specs,
        )

    def spill(self, nbytes: int) -> tuple[int, int, int]:
        """Shed the pending partials as one encoded run; returns
        ``(released, written, runs)``."""
        if self._finishing or not self._partials:
            return (0, 0, 0)
        payload = _SERDE.encode(self._merged(self._partials))
        self._runs.append(payload)
        self._partials = []
        released = 0
        task_ctx = current_task_context()
        if task_ctx is not None:
            released = task_ctx.release_memory(self.owner, self._charged)
        record_run_written(self.owner, len(payload))
        self._charged = 0
        return (released, len(payload), 1)

    def finish(self) -> ColumnBatch:
        self._finishing = True
        pieces = list(map(_SERDE.decode, self._runs)) + self._partials
        if self._runs:
            task_ctx = current_task_context()
            if task_ctx is not None:
                read_bytes = sum(map(len, self._runs))
                task_ctx.metrics.spill_bytes_read += read_bytes
                # The runs live on the task's heap again until the
                # attempt ends: put them back on the ledger.
                task_ctx.reserve_memory(self.owner, read_bytes)
        if pieces:
            return self._merged(pieces)
        # No row at all.  A global aggregation still yields one group
        # (COUNT(*) over zero rows is 0, not zero rows).
        entries = [
            column
            for spec in self.specs
            for column in _acc_columns(spec.function, [spec.function.initial()])
        ]
        if not self.group_kernels:
            return ColumnBatch(entries, 1)
        width = len(self.group_kernels) + len(entries)
        return ColumnBatch([Vector([]) for __ in range(width)], 0)



# ---------------------------------------------------------------------------
# The equi-join kernel
# ---------------------------------------------------------------------------


class JoinBuild:
    """The build side of an equi-join — the broadcast side of a map join,
    one side of a cogrouped partition: its rows as one batch, grouped
    once by join key.  ``rows[starts[g]:starts[g] + counts[g]]`` are the
    build rows of group ``g`` in build order; rows whose key has a NULL
    component are in no group."""

    def __init__(self, batch: ColumnBatch, keys: list[Vector]):
        self.batch = ColumnBatch(batch.vectors(), batch.num_rows)
        data = ordered_array(keys[0]) if len(keys) == 1 else None
        #: Sorted distinct keys of a NULL-free numeric key column (then
        #: the probe bisects); None when keys are looked up by value.
        self.uniq: Optional[np.ndarray] = None
        self._lookup: Optional[dict] = None
        if data is not None:
            self.rows = np.argsort(data, kind="stable")
            self.uniq, self.starts, self.counts = np.unique(
                data[self.rows], return_index=True, return_counts=True
            )
            return
        columns = [vector.to_python_list() for vector in keys]
        values = columns[0] if len(keys) == 1 else list(zip(*columns))
        keyed = np.ones(batch.num_rows, dtype=bool)
        for column in columns:
            keyed &= not_null(column)
        kept = np.flatnonzero(keyed)
        values = list(map(values.__getitem__, kept.tolist()))
        self._lookup = {v: i for i, v in enumerate(dict.fromkeys(values))}
        gids = np.fromiter(
            map(self._lookup.__getitem__, values),
            dtype=np.int64,
            count=len(values),
        )
        self.rows = kept[np.argsort(gids, kind="stable")]
        self.counts = np.bincount(gids, minlength=len(self._lookup))
        self.starts = np.cumsum(self.counts) - self.counts

    def probe(self, keys: list[Vector], n: int) -> np.ndarray:
        """Group of every probing row; -1 where the key matches none."""
        if self.uniq is not None:
            vector = keys[0]
            if not isinstance(vector.data, np.ndarray):
                vector = Vector.from_values(vector.data)
            data = vector.data
            if (
                isinstance(data, np.ndarray)
                and data.dtype.kind == self.uniq.dtype.kind
                # ... and unit: a date matches no datetime.
                and (data.dtype.kind != "M" or data.dtype == self.uniq.dtype)
            ):
                if not len(self.uniq):
                    return np.full(n, -1)
                at = np.searchsorted(self.uniq, data)
                at[at == len(self.uniq)] = 0
                hit = self.uniq[at] == data
                if vector.valid is not None:
                    hit &= vector.valid
                return np.where(hit, at, -1)
            if self._lookup is None:
                self._lookup = dict(
                    zip(self.uniq.tolist(), range(len(self.uniq)))
                )
        columns = [vector.to_python_list() for vector in keys]
        values = columns[0] if len(keys) == 1 else zip(*columns)
        return np.fromiter(
            map(self._lookup.get, values, repeat(-1)), dtype=np.int64, count=n
        )



def _take_or_null(batch: ColumnBatch, rows: np.ndarray) -> list:
    """``batch``'s columns at ``rows``; NULL where a row is -1 (the side
    of an outer join's row that nothing matched)."""
    present = rows >= 0
    if present.all():
        return batch.take(rows).entries
    if not batch.num_rows:
        return [Vector([None] * len(rows)) for __ in batch.entries]
    out = []
    for taken in batch.take(np.where(present, rows, 0)).vectors():
        data, valid = taken.data, taken.valid
        if isinstance(data, np.ndarray):
            valid = present if valid is None else valid & present
        else:
            data = list(data)
            for index in np.flatnonzero(~present).tolist():
                data[index] = None
        out.append(Vector(data, valid))
    return out


class JoinProbe:
    """The one equi-join: a stream batch's key vectors probe a
    :class:`JoinBuild` and the joined batch is gathered from both —
    stream rows in order, the build rows of one in build order, a stream
    row of an outer stream side that matched nothing NULL-extended in its
    place, then the build rows of an outer build side that nothing
    matched.  An equi-join key with a NULL component matches nothing;
    ``residual`` is a keep-mask kernel over the joined (left + right)
    batch.  The build side may be outer only where one probe sees every
    row that could match it (a cogrouped partition, not a broadcast)."""

    def __init__(
        self,
        stream_keys: list[Kernel],
        stream_is_left: bool,
        join_type: str,
        residual: Optional[Kernel],
        stream_width: int,
    ):
        self._stream_keys = stream_keys
        self._stream_is_left = stream_is_left
        outer_left = join_type in ("left", "full")
        outer_right = join_type in ("right", "full")
        self._outer_stream = outer_left if stream_is_left else outer_right
        self._outer_build = outer_right if stream_is_left else outer_left
        self._residual = residual
        self._stream_width = stream_width

    def __call__(self, build: JoinBuild, batch: ColumnBatch) -> ColumnBatch:
        n = batch.num_rows
        if n:
            groups = build.probe(
                [kernel(batch) for kernel in self._stream_keys], n
            )
            batch = _narrowed(batch, self._stream_width)
        else:  # (and then maybe no column to read a key from)
            groups = np.empty(0, dtype=np.int64)
            batch = ColumnBatch.from_rows([], self._stream_width)
        # Every (stream row, build row) pair of equal keys: a matched
        # stream row repeated once per row of its group, beside the
        # group's run of build rows.
        matched = np.flatnonzero(groups >= 0)
        groups = groups[matched]
        counts = build.counts[groups]
        stream_rows = np.repeat(matched, counts)
        within = np.arange(len(stream_rows)) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        build_rows = build.rows[np.repeat(build.starts[groups], counts) + within]
        if self._residual is not None and len(stream_rows):
            pairs = self._joined(build, batch, stream_rows, build_rows)
            kept = np.flatnonzero(self._residual(pairs))
            stream_rows, build_rows = stream_rows[kept], build_rows[kept]
        lonely_build = ()
        if self._outer_build:
            lonely_build = np.flatnonzero(
                np.bincount(build_rows, minlength=build.batch.num_rows) == 0
            )
        if self._outer_stream:
            lonely = np.flatnonzero(np.bincount(stream_rows, minlength=n) == 0)
            if len(lonely):
                # NULL-extended once each, in their place in stream order.
                stream_rows = np.concatenate([stream_rows, lonely])
                build_rows = np.concatenate(
                    [build_rows, np.full(len(lonely), -1)]
                )
                order = np.argsort(stream_rows, kind="stable")
                stream_rows, build_rows = stream_rows[order], build_rows[order]
        if len(lonely_build):
            stream_rows = np.concatenate(
                [stream_rows, np.full(len(lonely_build), -1)]
            )
            build_rows = np.concatenate([build_rows, lonely_build])
        return self._joined(build, batch, stream_rows, build_rows)

    def _joined(self, build, batch, stream_rows, build_rows) -> ColumnBatch:
        stream = _take_or_null(batch, stream_rows)
        built = _take_or_null(build.batch, build_rows)
        entries = stream + built if self._stream_is_left else built + stream
        return ColumnBatch(entries, len(stream_rows))


# ---------------------------------------------------------------------------
# The batch pipeline
# ---------------------------------------------------------------------------

#: Counters of the kernels' dictionary-domain evaluations: how many ran,
#: the distinct values they evaluated, the rows those stood for.
_DICTIONARY = (
    "batch.kernel.dictionary",
    "batch.dictionary.values",
    "batch.dictionary.rows",
)


def filter_link(keep: Kernel) -> tuple:
    """WHERE as a chain link: the rows whose keep-mask is set."""
    return "filter", lambda batch: batch.take(np.flatnonzero(keep(batch)))


def project_link(plans: list) -> tuple:
    """A SELECT list as a chain link; ``plans`` as
    ``compile_vector_projection`` gives them: a carried column moves as
    the (possibly still encoded) entry it is."""

    def project(batch: ColumnBatch) -> ColumnBatch:
        return ColumnBatch(
            [
                batch.entries[plan] if kind == "col" else plan(batch)
                for kind, plan in plans
            ],
            batch.num_rows,
        )

    return "project", project


class BlockScan(NamedTuple):
    """What a pipeline over a cached table's blocks reads.  A block is
    read with ``ColumnBatch.from_block``: its columns decode on first
    touch and the block keeps them, so every query over it — whatever
    its predicate, concurrent or later — decodes each column once."""

    #: The columns to decode, and the projection they are priced by.
    column_indices: list[int]
    projected: Optional[list[str]]


class BatchPipelineRDD(RDD):
    """A fused chain of batch links over a source of batches.

    The source is the parent's ColumnBatches (an external scan, the
    output of an exchange) or, with ``scan``, its ColumnarPartition
    blocks, each read as one batch of lazy columns.  source -> chain of
    ``(kind, batch -> batch)`` links (filter / project / join: the
    scan's predicate is the chain's first filter, a join link probes a
    broadcast build side) -> the batches themselves or, with
    ``aggregate_factory``, a :class:`BatchAggregator`'s partial batch.

    Columns stay (possibly compressed) arrays throughout.
    """

    def __init__(
        self,
        parent: RDD,
        chain: Sequence[tuple] = (),
        aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
        name: str = "batch_pipeline",
        op_keys: Optional[dict] = None,
        scan: Optional[BlockScan] = None,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            [OneToOneDependency(parent)],
            name=name,
        )
        self._parent = parent
        self._chain = tuple(chain)
        self._aggregate_factory = aggregate_factory
        self._scan = scan
        #: Plan-quality stamp keys for the fused operators: "scan" (a
        #: block scan's), "chain" (one per link; None for a link the
        #: planner added unstamped) and "aggregate" — runtime row counts
        #: are credited to these.
        self._op_keys = dict(op_keys or {})

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        counters = self.ctx.tracer.metrics
        scan = self._scan
        aggregator = (
            self._aggregate_factory() if self._aggregate_factory else None
        )
        out: list = []
        total_records = 0
        total_bytes = 0
        num_batches = 0
        chain_keys = self._op_keys.get("chain") or (None,) * len(self._chain)
        chain_rows_out = [0] * len(self._chain)
        #: Whether a link ever saw a row: a join over nothing ran no
        #: probe and credits nothing.
        chain_ran = [False] * len(self._chain)
        dictionary_before = [counters.value(name) for name in _DICTIONARY]
        for batch in self._parent.iterator(split, task_ctx):
            if scan is not None:  # ... and ``batch`` is still a block
                total_bytes += _scanned_bytes(batch, scan.projected)
                batch = ColumnBatch.from_block(batch, scan.column_indices)
                num_batches += 1
            elif not batch.num_rows:
                continue  # of any width: no link could read a column of it
            total_records += batch.num_rows
            for index, (kind, link) in enumerate(self._chain):
                chain_ran[index] |= batch.num_rows > 0
                batch = link(batch)
                # (Spelled out: the metric-name registry reads literals.)
                if kind == "filter":
                    counters.inc("batch.kernel.filter")
                elif kind == "join":
                    counters.inc("batch.kernel.join")
                else:
                    counters.inc("batch.kernel.project")
                chain_rows_out[index] += batch.num_rows
            if aggregator is not None:
                aggregator.consume(batch)
                counters.inc("batch.kernel.aggregate")
            else:
                out.append(batch)
        # The kernels count their dictionary-domain evaluations; one task
        # runs at a time, so the difference is this task's.
        kernels, values, covered = (
            int(counters.value(name) - before)
            for name, before in zip(_DICTIONARY, dictionary_before)
        )
        if aggregator is not None:
            out = [aggregator.finish()]
        self.ctx.tracer.instant(
            "batch.pipeline",
            "task",
            lane=task_ctx.worker.worker_id,
            stage_id=task_ctx.stage_id,
            partition=task_ctx.partition,
            batches=num_batches,
            rows=total_records,
            output_rows=(
                None if aggregator is not None else sum(map(len, out))
            ),
            dictionary_kernels=kernels,
            dictionary_values=values,
            dictionary_rows=covered,
        )
        if scan is not None:
            counters.inc("batch.batches", num_batches)
            task_ctx.metrics.source = SOURCE_MEMORY
            task_ctx.metrics.records_in += total_records
            task_ctx.metrics.bytes_in += total_bytes
            counters.inc("batch.rows", total_records)
            task_ctx.metrics.batch_rows += total_records
            scan_key = self._op_keys.get("scan")
            if scan_key is not None:
                record_operator_rows(scan_key, total_records)
        for (kind, __), key, count, ran in zip(
            self._chain, chain_keys, chain_rows_out, chain_ran
        ):
            if key is not None and (ran or kind != "join"):
                record_operator_rows(key, count)
        aggregate_key = self._op_keys.get("aggregate")
        if aggregator is not None and aggregate_key is not None:
            record_operator_rows(aggregate_key, out[0].num_rows)
        return out


def scan_batch_pipeline(
    entry: "TableEntry",
    projected: Optional[list[str]],
    kept_partitions: Optional[list[int]],
    column_indices: list[int],
    chain: Sequence[tuple] = (),
    aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
    name: str = "batch_scan",
    op_keys: Optional[dict] = None,
) -> RDD:
    """Build the fused batch dataflow for a cached table, optionally
    map-pruned to ``kept_partitions``."""
    base = entry.cached_rdd
    if base is None:
        raise ValueError(f"table {entry.name} has no cached data")
    if kept_partitions is not None and kept_partitions != list(
        range(base.num_partitions)
    ):
        base = PrunedRDD(base, kept_partitions)
    return BatchPipelineRDD(
        base,
        chain,
        aggregate_factory,
        name,
        op_keys,
        BlockScan(column_indices, projected),
    )



# ---------------------------------------------------------------------------
# ORDER BY
# ---------------------------------------------------------------------------


class Descending:
    """Inverts the order of one DESC sort column whose values cannot be
    negated (strings, datetimes with a zone); numbers negate instead,
    dates and timestamps negate their day or microsecond number, and
    never meet this class."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Descending) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


_NEGATABLE = (IntegerType, LongType, DoubleType, DateType, TimestampType)


def _negated_time(value) -> int:
    return -time_number(value)


def _descending(values: list, data_type: DataType) -> list:
    """A DESC column's values mapped so that ascending order of the
    result is descending order of the input (NULLs pass through; the
    key's NULL flag orders them)."""
    if not isinstance(data_type, _NEGATABLE):
        return list(map(Descending, values))
    negate = operator.neg
    if isinstance(data_type, (DateType, TimestampType)):
        negate = _negated_time
    try:
        if None in values:
            return [None if v is None else negate(v) for v in values]
        return list(map(negate, values))
    except TypeError:  # datetimes with a zone have no number: wrapped
        return list(map(Descending, values))



def flat_sort_keys(
    keys: list[tuple[BoundExpr, bool]], columns: list[list]
) -> list[tuple]:
    """One natively comparable ORDER BY key per row, from the ORDER BY
    columns' values.

    Each ORDER BY column contributes ``(flag, value)`` to a flat tuple
    that sorts *ascending* whatever the column's direction: ascending
    columns flag non-NULLs (NULLs first), descending columns flag NULLs
    (NULLs last) and invert their values — so range bounds and sorts
    compare plain tuples in C, and equal flags mean both values are NULL
    or neither is, so NULL never meets ``<``.
    """
    parts: list = []
    for (expr, ascending), values in zip(keys, columns):
        if ascending:
            parts.append(map(operator.is_not, values, repeat(None)))
            parts.append(values)
        else:
            parts.append(map(operator.is_, values, repeat(None)))
            parts.append(_descending(values, expr.data_type))
    return list(zip(*parts))



def _ascending_arrays(
    keys: list[tuple[BoundExpr, bool]], vectors: list[Vector]
) -> Optional[list[np.ndarray]]:
    """The ORDER BY columns as arrays whose ascending numeric order is
    the flat keys' order — every column a NULL-free, NaN-free numeric or
    datetime64 array, negated (the latter as its numbers) where
    descending; None when one is not."""
    arrays = []
    for (expr, ascending), vector in zip(keys, vectors):
        data = ordered_array(vector)
        if data is None or not isinstance(expr.data_type, _NEGATABLE):
            return None
        if not ascending:
            if data.dtype.kind in "iM":
                data = data.astype(np.int64, copy=False)
                if data.size and data.min() == np.iinfo(np.int64).min:
                    return None
            data = -data
        arrays.append(data)
    return arrays


class SortPartitioner(RangePartitioner):
    """The range partitioner of an ORDER BY exchange.  Its bounds are
    flat sort keys; the rows it places are keyed by the ORDER BY columns
    themselves, which are turned into flat keys only when one numeric
    bisection of the column cannot stand in for the tuple bisection."""

    def __init__(self, bounds: Sequence[tuple], keys: list):
        super().__init__(bounds)
        self._keys = keys

    def keys_at(self, batch: ColumnBatch, key, rows=None) -> list[tuple]:
        return flat_sort_keys(self._keys, columns_at(batch, key, rows))

    def _array_ids(self, batch: ColumnBatch, key) -> Optional[np.ndarray]:
        if len(key) != 1 or not batch.num_rows or not all(
            # (flag, value): the flag of every non-NULL key is the same.
            bound[0] is self._keys[0][1] for bound in self._bounds
        ):
            return None
        arrays = _ascending_arrays(self._keys, [batch.vector(key[0])])
        if arrays is None:
            return None
        bounds = ordered_bounds([bound[1] for bound in self._bounds], arrays[0])
        if bounds is None:
            return None
        return np.searchsorted(bounds, arrays[0], side="left")


def sort_batches(
    child: RDD,
    keys: list[tuple[BoundExpr, bool]],
    ordinals: list[int],
    width: int,
    *,
    op: OperatorStamp,
    top: Optional[int] = None,
    num_partitions: Optional[int] = None,
) -> RDD:
    """ORDER BY over batches into ``num_partitions`` ranges (None: one
    per core); yields batches of the ``width`` row columns (under a
    LIMIT of ``top``, one partition holding each map task's first
    ``top`` rows, in order).  The ORDER BY columns cross
    the exchange as what they are — the columns at ``ordinals``: columns
    of the row, or computed ones beside it — and a batch is ordered by
    one stable ``argsort``/``lexsort`` when they are all plain numerics,
    by ``sorted()`` over the flat keys otherwise."""

    def order(batch: ColumnBatch) -> Sequence[int]:
        vectors = [batch.vector(i) for i in ordinals]
        arrays = _ascending_arrays(keys, vectors)
        if arrays is not None:
            if len(arrays) == 1:
                return stable_argsort(arrays[0])
            return np.lexsort(arrays[::-1])
        flat = flat_sort_keys(
            keys, [vector.to_python_list() for vector in vectors]
        )
        return sorted(range(batch.num_rows), key=flat.__getitem__)

    ordered = child.sort_batches(
        tuple(ordinals),
        lambda bounds: SortPartitioner(bounds, keys),
        order,
        num_partitions=num_partitions,
        top=top,
    )
    return _counted(
        ordered,
        op,
        "sort",
        lambda part: [_narrowed(batch, width) for batch in part],
        preserves_partitioning=True,
    )


# ---------------------------------------------------------------------------
# Aggregation and DISTINCT past the map side
# ---------------------------------------------------------------------------


def exchange_partials(
    partials: RDD, num_keys: int, num_partitions: int
) -> ShuffledRDD:
    """Phase 2a: shuffle partial batches by group key into
    ``num_partitions`` reduce partitions."""
    shuffled = ShuffledRDD.of(
        BatchShuffleDependency(
            partials,
            HashPartitioner(num_partitions),
            key=tuple(range(num_keys)),
            map_side_combine=True,
        )
    )
    return shuffled.set_name("merge_aggregate")


def final_aggregate(
    exchanged: RDD,
    num_keys: int,
    specs: list[AggregateSpec],
    final_op: OperatorStamp,
    name: str = "final_aggregate",
) -> RDD:
    """Phase 2b: merge each reduce partition's partials per group
    (:func:`merge_partials`) and finish them (:func:`finish_partials`)."""

    def run(part: list) -> list:
        merged = merge_partials(ColumnBatch.concat(part), num_keys, specs)
        return [finish_partials(merged, num_keys, specs)]

    return _counted(exchanged, final_op, name, run)


def distinct_batches(
    child: RDD, width: int, num_partitions: int, *, op: OperatorStamp
) -> RDD:
    """DISTINCT: an aggregation with every column a group key and no
    aggregate — rows merged within each task, exchanged by the whole
    row, merged again."""
    local = MapPartitionsRDD(
        child,
        lambda _, part: [merge_partials(ColumnBatch.concat(part), width, [])],
        name="distinct_local",
    )
    return final_aggregate(
        exchange_partials(local, width, num_partitions), width, [], op,
        name="distinct",
    )


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def keyed_batches(
    child: RDD, ordinals: list[int], partitioner: Partitioner
) -> BatchShuffleDependency:
    """The exchange of ``child``'s batches by the columns at
    ``ordinals``: its dependency."""
    return BatchShuffleDependency(
        child,
        partitioner,
        key=ordinals[0] if len(ordinals) == 1 else tuple(ordinals),
    )


def pre_shuffle_side(
    ctx: "EngineContext",
    side: RDD,
    ordinals: list[int],
    partitioner: Partitioner,
) -> tuple[ShuffledRDD, "MapOutputStats"]:
    """PDE: run the map (pre-shuffle) stage of one join side *now*.

    Returns the shuffled side — an RDD of batches whose map outputs are
    already materialized — plus the statistics its map tasks reported,
    which the optimizer reads before deciding the join strategy.
    """
    dep = keyed_batches(side, ordinals, partitioner)
    return ShuffledRDD.of(dep), ctx.materialize_dependency(dep)


class CoGroupedBatchesRDD(RDD):
    """Partition ``i`` of two join sides, each as one batch, handed to
    ``join``.  A side is an RDD of batches already partitioned by
    ``partitioner`` — a PDE pre-shuffle, a table stored DISTRIBUTE BY the
    key: read narrowly, so that work is reused, not repeated — or the
    :func:`keyed_batches` dependency to fetch it through."""

    def __init__(
        self,
        ctx: "EngineContext",
        sides: "list[RDD | ShuffleDependency]",
        partitioner: Partitioner,
        join: Callable[[ColumnBatch, ColumnBatch], ColumnBatch],
        name: str,
    ):
        super().__init__(
            ctx,
            partitioner.num_partitions,
            [
                side
                if isinstance(side, ShuffleDependency)
                else OneToOneDependency(side)
                for side in sides
            ],
            partitioner=partitioner,
            name=name,
        )
        self._join = join

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        batches = []
        for dep in self.dependencies:
            if isinstance(dep, ShuffleDependency):
                batch = task_ctx.shuffle_manager.fetch(
                    dep.shuffle_id, split, task_ctx.metrics
                )
            else:
                batch = ColumnBatch.concat(dep.rdd.iterator(split, task_ctx))
            batches.append(batch)
        return [self._join(*batches)]


def cogroup_join(
    ctx: "EngineContext",
    left: "RDD | ShuffleDependency",
    right: "RDD | ShuffleDependency",
    partitioner: Partitioner,
    probe: JoinProbe,
    build_ordinals: list[int],
    build_width: int,
    name: str,
    op: OperatorStamp,
) -> RDD:
    """The shuffle join and the co-partitioned join (Section 3.4: both
    sides inherit the stored partitioning, so every dependency is narrow
    and no shuffle happens): in each partition the right side is built
    (:class:`JoinBuild`, keyed by its columns at ``build_ordinals``) and
    the left side streams past it through ``probe`` — an outer build side
    is safe here, the partition holds every row of its keys."""
    key = op.key

    def join(stream: ColumnBatch, build: ColumnBatch) -> ColumnBatch:
        if build.num_rows:
            keys = [build.vector(i) for i in build_ordinals]
            build = _narrowed(build, build_width)
        else:  # (and then maybe no column to read a key from)
            keys = [Vector([]) for __ in build_ordinals]
            build = ColumnBatch.from_rows([], build_width)
        joined = probe(JoinBuild(build, keys), stream)
        if stream.num_rows or build.num_rows:
            record_operator_rows(key, joined.num_rows)
        return joined

    return CoGroupedBatchesRDD(ctx, [left, right], partitioner, join, name)


def _charge_build_side(ctx: "EngineContext", value: Any, rows: ColumnBatch):
    """Broadcast a join build structure holding ``rows``, briefly
    double-charging it as ``join_build`` on the driver's execution pool
    so the peak-consumers view attributes build-side memory to joins
    (the live charge then rides the broadcast until the query releases
    its accounting).  What it weighs is what ``rows`` would encode to."""
    accountant = ctx.memory
    size = _SERDE.encoded_size(rows)[0]
    reserved = accountant.reserve(
        DRIVER_WORKER, EXECUTION, "join_build", size
    )
    broadcast = ctx.broadcast(value, size_bytes=size)
    accountant.release(DRIVER_WORKER, EXECUTION, "join_build", reserved)
    return broadcast


def broadcast_link(
    ctx: "EngineContext",
    build: ColumnBatch,
    build_keys: list[Vector],
    probe: JoinProbe,
) -> tuple:
    """Map join (Section 3.1.1) as a chain link: the small side is
    grouped by key once, broadcast, and every stream batch probes it."""
    broadcast = _charge_build_side(ctx, JoinBuild(build, build_keys), build)
    return "join", lambda batch: probe(broadcast.value, batch)


def cross_link(
    ctx: "EngineContext", right: ColumnBatch, residual: Optional[Kernel]
) -> tuple:
    """Broadcast nested-loop join for key-less joins, as a chain link:
    every stream row beside every row of ``right``, in that order, less
    what the ``residual`` keep-mask drops."""
    right = ColumnBatch(right.vectors(), right.num_rows)
    broadcast = _charge_build_side(ctx, right, right)

    def cross(batch: ColumnBatch) -> ColumnBatch:
        build: ColumnBatch = broadcast.value
        n, m = batch.num_rows, build.num_rows
        joined = ColumnBatch(
            batch.take(np.repeat(np.arange(n), m)).entries
            + build.take(np.tile(np.arange(m), n)).entries,
            n * m,
        )
        if residual is not None and joined.num_rows:
            joined = joined.take(np.flatnonzero(residual(joined)))
        return joined

    return "join", cross


def semi_join_link(
    ctx: "EngineContext", key: Kernel, values: list, negated: bool
) -> tuple:
    """``key [NOT] IN (subquery values)`` as a chain link probing the
    collected, broadcast values.  SQL three-valued semantics: a NULL key
    is never TRUE and NOT IN over values containing NULL is never TRUE
    for any row — unless there is no value at all: IN (nothing) is FALSE
    and NOT IN (nothing) TRUE, whatever the key."""
    nothing, has_null = not values, None in values
    present = [value for value in values if value is not None]
    try:
        members: Any = frozenset(present)
    except TypeError:  # unhashable subquery values: a linear probe
        members = present
    broadcast = _charge_build_side(
        ctx, members, ColumnBatch.from_columns([list(members)])
    )

    def keep(batch: ColumnBatch) -> np.ndarray:
        if nothing:
            return np.full(batch.num_rows, negated)
        if negated and has_null:
            return np.zeros(batch.num_rows, dtype=bool)
        contains = broadcast.value.__contains__
        keys = key(batch).to_python_list()
        found = np.fromiter(map(contains, keys), bool, len(keys))
        return (~found & not_null(keys)) if negated else found

    return filter_link(keep)


# ---------------------------------------------------------------------------
# LIMIT, UNION ALL, DISTRIBUTE BY
# ---------------------------------------------------------------------------


def _head(count: int, part: list) -> list:
    """The batches of a partition cut after its first ``count`` rows."""
    out: list = []
    for batch in part:
        if count <= 0:
            break
        if batch.num_rows > count:
            batch = batch.slice(0, count)
        out.append(batch)
        count -= batch.num_rows
    return out


def limit_batches(child: RDD, count: int, *, op: OperatorStamp) -> RDD:
    """LIMIT pushed into individual partitions (Section 2.4), then a final
    single-partition pass takes the global first ``count``."""
    head = partial(_head, count)
    local = child.map_partitions(head).set_name("limit_local")
    return _counted(local.coalesce(1), op, "limit", head)


def union_batches(
    ctx: "EngineContext", children: list[RDD], *, op: OperatorStamp
) -> RDD:
    return _counted(ctx.union(children), op, "union_all")


def repartition_batches(
    child: RDD,
    ordinals: list[int],
    width: int,
    partitioner: Partitioner,
    *,
    op: OperatorStamp,
) -> RDD:
    """DISTRIBUTE BY: batches hashed to partitions by the key columns at
    ``ordinals``, the ``width`` row columns kept."""
    out = _counted(
        ShuffledRDD.of(keyed_batches(child, ordinals, partitioner)),
        op,
        "distribute_by",
        lambda part: [_narrowed(batch, width) for batch in part],
        preserves_partitioning=True,
    )
    out.partitioner = partitioner
    return out
