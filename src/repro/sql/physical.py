"""Physical operators: logical nodes lowered to RDD transformations.

Each helper takes child RDDs and returns a new RDD.  An RDD's partitions
hold row tuples or — between the operators of a vectorized plan and
across every exchange — ColumnBatches (:mod:`repro.columnar.batch`);
rows are built once, by :func:`rows_of`, where a plan hands its result
to a row consumer.  The planner (:mod:`repro.sql.planner`) decides
*which* helper to use (join strategies, PDE, map pruning); the helpers
only build dataflow.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

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
)
from repro.engine.memory import DRIVER_WORKER, EXECUTION
from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    ordered_array,
    ordered_bounds,
)
from repro.engine.rdd import (
    RDD,
    CoGroupedRDD,
    MapPartitionsRDD,
    PrunedRDD,
    ShuffledRDD,
)
from repro.engine.spill import SpillableGroups, record_run_written
from repro.engine.task import current_task_context
from repro.obs.planquality import OperatorStamp, record_operator_rows
from repro.sql.expressions import BoundColumn, BoundExpr
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
    from repro.engine.task import TaskContext
    from repro.sql.catalog import TableEntry

_SERDE = BatchSerde()


# ---------------------------------------------------------------------------
# Scans
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
        block.encoded_column(block.schema.index_of(name)).compressed_bytes
        for name in projected
    )


class MemstoreScanRDD(RDD):
    """Scan a cached table's columnar partitions into row tuples.

    Only the projected columns are decoded (the benefit of the columnar
    layout, Section 3.2).  This is the row-mode reference scan: it applies
    no predicate — :func:`filter_rows` does, over the tuples built here.
    The parent RDD's elements are :class:`ColumnarPartition` blocks, one
    per partition.
    """

    def __init__(
        self,
        parent: RDD,
        projected: Optional[list[str]] = None,
        scan_key: Optional[str] = None,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            [OneToOneDependency(parent)],
            name="memstore_scan",
        )
        self._parent = parent
        self._projected = projected
        #: Plan-quality stamp key credited with the rows read.
        self._scan_key = scan_key

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        rows: list[tuple] = []
        total_bytes = 0
        for block in self._parent.iterator(split, task_ctx):
            total_bytes += _scanned_bytes(block, self._projected)
            rows.extend(block.iter_rows(self._projected))
        task_ctx.metrics.source = SOURCE_MEMORY
        task_ctx.metrics.records_in += len(rows)
        task_ctx.metrics.bytes_in += total_bytes
        if self._scan_key is not None:
            record_operator_rows(self._scan_key, len(rows))
        return rows


def scan_memstore(
    entry: "TableEntry",
    projected: Optional[list[str]],
    kept_partitions: Optional[list[int]] = None,
    scan_op: Optional[OperatorStamp] = None,
) -> RDD:
    """Build the scan dataflow for a cached table, optionally map-pruned."""
    base = entry.cached_rdd
    if base is None:
        raise ValueError(f"table {entry.name} has no cached data")
    if kept_partitions is not None and kept_partitions != list(
        range(base.num_partitions)
    ):
        base = PrunedRDD(base, kept_partitions)
    return MemstoreScanRDD(
        base, projected,
        scan_key=scan_op.key if scan_op is not None else None,
    )


# ---------------------------------------------------------------------------
# Batch pipeline (vectorized execution past the scan)
# ---------------------------------------------------------------------------


def rows_of(batches: RDD, width: Optional[int] = None) -> RDD:
    """Late materialization, as an operator: the rows (of the first
    ``width`` columns) of an RDD whose partitions hold ColumnBatches."""

    def run(_: int, part: list) -> list:
        rows: list[tuple] = []
        for batch in part:
            if width is not None and len(batch.entries) > width:
                batch = ColumnBatch(batch.entries[:width], batch.num_rows)
            rows.extend(batch.materialize_rows())
        return rows

    # Named after what it reads: a stage is known by its last operator.
    return MapPartitionsRDD(batches, run, name=batches.name)


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
    """The same partition of the rows under dense codes ``0..k-1``."""
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


def partials_batch(
    pairs: list, num_keys: int, specs: list[AggregateSpec]
) -> ColumnBatch:
    """``(group key, accumulators)`` pairs in the partial-batch layout."""
    keys = transpose_rows([key for key, __ in pairs], num_keys)
    accs = transpose_rows([accs for __, accs in pairs], len(specs))
    entries = list(map(Vector.from_values, keys))
    for spec, column in zip(specs, accs):
        entries.extend(_acc_columns(spec.function, column))
    return ColumnBatch(entries, len(pairs))


def partials_pairs(
    batch: ColumnBatch, num_keys: int, specs: list[AggregateSpec]
) -> list:
    """The pairs :func:`partials_batch` was given."""
    if not batch.num_rows:
        return []
    columns, ordinal = [], num_keys
    for spec in specs:
        width = _acc_width(spec.function)
        columns.append(
            _accs_of(
                spec.function,
                [batch.vector(ordinal + i) for i in range(width)],
            )
        )
        ordinal += width
    accs = zip(*columns) if columns else repeat(())
    return list(zip(batch.values(tuple(range(num_keys))), map(list, accs)))


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
    fn: AggregateFunction, vectors: list[Vector], gids: np.ndarray, k: int
) -> list[Vector]:
    """One aggregate's accumulator columns segment-reduced to one row
    per group, partials of a group merged in arrival order."""
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
    batch: ColumnBatch, num_keys: int, specs: list[AggregateSpec]
) -> ColumnBatch:
    """Partials of the same group merged into one, groups in
    first-occurrence order: the merge of every vectorized aggregation —
    a map task that saw several batches, the reduce side, a re-merge
    after a spill.  Replaces the per-pair loops of ``ShuffledRDD`` and
    ``SpillableGroups.finish_groups`` (row mode keeps those)."""
    n = batch.num_rows
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
    batch: ColumnBatch, num_keys: int, specs: list[AggregateSpec]
) -> ColumnBatch:
    """Merged partials to output rows: the keys, then each aggregate's
    ``finish`` — the accumulator column itself for COUNT/SUM/MIN/MAX."""
    n = batch.num_rows
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
    """Vectorized task-local hash aggregation over ColumnBatches.

    Every consumed batch becomes one partial batch (the layout above) by
    per-group numpy reductions whose accumulation order matches the row
    path's left-to-right updates; ``finish`` merges them
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

    # -- the spill consumer contract --------------------------------------
    def spillable_bytes(self) -> int:
        return self._charged

    def _merged(self, pieces: list[ColumnBatch]) -> ColumnBatch:
        if len(pieces) == 1:
            return pieces[0]
        return merge_partials(
            ColumnBatch.concat(pieces), len(self.group_kernels), self.specs
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


class BroadcastProbe:
    """One broadcast (map) join as a link of the batch chain: the stream
    batch's key vectors probe the build side, grouped once by key, and
    the joined batch is gathered from both — stream rows in order, the
    build rows of one in build order (the row path's order).  An equi-join
    key with a NULL component matches nothing."""

    def __init__(
        self,
        build: "Any",
        stream_kernels: list,
        stream_is_left: bool,
        outer_stream: bool,
        residual: Optional[Callable],
    ):
        self._build = build  # Broadcast of a JoinBuild
        self._stream_kernels = stream_kernels
        self._stream_is_left = stream_is_left
        self._outer_stream = outer_stream
        self._residual = residual

    def __call__(self, batch: ColumnBatch) -> ColumnBatch:
        build: JoinBuild = self._build.value
        n = batch.num_rows
        groups = build.probe(
            [kernel(batch) for kernel in self._stream_kernels], n
        )
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
            kept = np.flatnonzero(
                self._residual(self._joined(batch, stream_rows, build_rows))
            )
            stream_rows, build_rows = stream_rows[kept], build_rows[kept]
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
        return self._joined(batch, stream_rows, build_rows)

    def _joined(self, batch, stream_rows, build_rows) -> ColumnBatch:
        stream = batch.take(stream_rows).entries
        build = self._build.value.take(build_rows)
        entries = stream + build if self._stream_is_left else build + stream
        return ColumnBatch(entries, len(stream_rows))


class JoinBuild:
    """The build side of a map join: its rows as one batch, grouped once
    by join key.  ``rows[starts[g]:starts[g] + counts[g]]`` are the build
    rows of group ``g`` in build order; rows whose key has a NULL
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

    def take(self, rows: np.ndarray) -> list[Vector]:
        """The build columns at ``rows``; NULL where a row is -1."""
        present = rows >= 0
        if present.all():
            return [vector.gather(rows) for vector in self.batch.vectors()]
        if not self.batch.num_rows:
            return [Vector([None] * len(rows)) for __ in self.batch.entries]
        out = []
        for vector in self.batch.vectors():
            taken = vector.gather(np.where(present, rows, 0))
            data, valid = taken.data, taken.valid
            if isinstance(data, np.ndarray):
                valid = present if valid is None else valid & present
            else:
                data = list(data)
                for index in np.flatnonzero(~present).tolist():
                    data[index] = None
            out.append(Vector(data, valid))
        return out


#: Counters of the kernels' dictionary-domain evaluations: how many ran,
#: the distinct values they evaluated, the rows those stood for.
_DICTIONARY = (
    "batch.kernel.dictionary",
    "batch.dictionary.values",
    "batch.dictionary.rows",
)


class BatchPipelineRDD(RDD):
    """A fused columnar pipeline over cached blocks.

    scan -> chain of filter/project/join kernels (the scan's predicate is
    the chain's first filter; a join link probes a broadcast build side)
    -> the batches themselves, their rows (``emit_rows``: late
    materialization, for a plan that ends here), or a
    :class:`BatchAggregator`'s partial batch.

    Columns stay (possibly compressed) arrays throughout.  One compute()
    call processes each ColumnarPartition block as one batch.
    """

    def __init__(
        self,
        parent: RDD,
        column_indices: list[int],
        projected: Optional[list[str]],
        chain: tuple = (),
        aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
        name: str = "batch_scan",
        fragment_scope: Optional[tuple] = None,
        op_keys: Optional[dict] = None,
        emit_rows: bool = True,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            [OneToOneDependency(parent)],
            name=name,
        )
        self._parent = parent
        self._column_indices = list(column_indices)
        self._projected = projected
        self._chain = tuple(chain)
        self._aggregate_factory = aggregate_factory
        self._emit_rows = emit_rows
        #: Plan-quality stamp keys for the fused operators: "scan",
        #: "chain" (one per chained kernel) and "aggregate" — runtime row
        #: counts are credited to these so batch and row mode report the
        #: same operators.
        self._op_keys = dict(op_keys or {})
        #: (table, version, kept_partitions_or_None) when the sql cache's
        #: fragment layer is on: each block's batch is published there,
        #: so every query over the same columns — whatever its predicate,
        #: concurrent or later — decodes each block once (shared scans).
        self._fragment_scope = fragment_scope

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        counters = self.ctx.tracer.metrics
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
        #: probe and, like the row join, credits nothing.
        chain_ran = [False] * len(self._chain)
        dictionary_before = [counters.value(name) for name in _DICTIONARY]
        cache = (
            getattr(self.ctx, "sql_cache", None)
            if self._fragment_scope is not None
            else None
        )
        for ordinal, block in enumerate(
            self._parent.iterator(split, task_ctx)
        ):
            total_bytes += _scanned_bytes(block, self._projected)
            total_records += block.num_rows
            batch = None
            fragment_key = None
            if cache is not None:
                fragment_key = cache.fragment_key(
                    self._fragment_scope,
                    split,
                    ordinal,
                    self._column_indices,
                )
                batch = cache.fragment_lookup(fragment_key)
            if batch is None:
                # batch.batches counts real decodes only: a fragment hit
                # (shared scan) reuses another query's decoded batch.
                num_batches += 1
                batch = ColumnBatch.from_block(block, self._column_indices)
                if fragment_key is not None:
                    cache.fragment_store(
                        fragment_key, batch, task_ctx.worker.worker_id
                    )
            for index, (kind, payload) in enumerate(self._chain):
                chain_ran[index] |= batch.num_rows > 0
                if kind == "filter":
                    keep = payload(batch)
                    batch = batch.take(np.nonzero(keep)[0])
                    counters.inc("batch.kernel.filter")
                elif kind == "join":
                    batch = payload(batch)
                    counters.inc("batch.kernel.join")
                else:  # project
                    entries = [
                        batch.entries[plan]
                        if plan_kind == "col"
                        else plan(batch)
                        for plan_kind, plan in payload
                    ]
                    batch = ColumnBatch(entries, batch.num_rows)
                    counters.inc("batch.kernel.project")
                chain_rows_out[index] += batch.num_rows
            if aggregator is not None:
                aggregator.consume(batch)
                counters.inc("batch.kernel.aggregate")
            elif self._emit_rows:
                out.extend(batch.materialize_rows())
            else:
                out.append(batch)
        counters.inc("batch.batches", num_batches)
        counters.inc("batch.rows", total_records)
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
                None
                if aggregator is not None
                else len(out) if self._emit_rows else sum(map(len, out))
            ),
            dictionary_kernels=kernels,
            dictionary_values=values,
            dictionary_rows=covered,
        )
        task_ctx.metrics.source = SOURCE_MEMORY
        task_ctx.metrics.records_in += total_records
        task_ctx.metrics.bytes_in += total_bytes
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
    chain: tuple = (),
    aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
    name: str = "batch_scan",
    op_keys: Optional[dict] = None,
    emit_rows: bool = True,
) -> RDD:
    """Build the fused batch dataflow for a cached table (same pruning
    contract as :func:`scan_memstore`)."""
    base = entry.cached_rdd
    if base is None:
        raise ValueError(f"table {entry.name} has no cached data")
    cache = getattr(base.ctx, "sql_cache", None)
    fragment_scope = None
    if cache is not None:
        fragment_scope = (
            entry.name.lower(),
            cache.table_version(entry.name),
            None,
        )
    if kept_partitions is not None and kept_partitions != list(
        range(base.num_partitions)
    ):
        if fragment_scope is not None:
            # Key fragments on the *original* partition ids, so two
            # queries with different pruning share surviving blocks.
            fragment_scope = (
                fragment_scope[0],
                fragment_scope[1],
                tuple(kept_partitions),
            )
        base = PrunedRDD(base, kept_partitions)
    return BatchPipelineRDD(
        base,
        column_indices,
        projected,
        chain=chain,
        aggregate_factory=aggregate_factory,
        name=name,
        fragment_scope=fragment_scope,
        op_keys=op_keys,
        emit_rows=emit_rows,
    )


# ---------------------------------------------------------------------------
# Row-level operators
# ---------------------------------------------------------------------------


def _count_into(op: OperatorStamp) -> Callable[[list], list]:
    """Per-partition pass-through that credits the partition's rows to
    ``op``'s plan-quality stamp."""
    key = op.key

    def count_partition(part: list) -> list:
        record_operator_rows(key, len(part))
        return part

    return count_partition


def _counted_filter(
    child: RDD, keep: Callable[[tuple], bool], op: OperatorStamp, name: str
) -> RDD:
    """``child.filter(keep)`` that also credits surviving rows to ``op``."""
    count = _count_into(op)

    def run(part: list) -> list:
        return count([row for row in part if keep(row)])

    return child.map_partitions(
        run, preserves_partitioning=True
    ).set_name(name)


def filter_rows(child: RDD, condition: BoundExpr, *, op: OperatorStamp) -> RDD:
    """Filter rows where the predicate is exactly TRUE."""
    count = _count_into(op)

    def run(part: list) -> list:
        values = _column_values(condition, part)
        return count(
            [row for row, value in zip(part, values) if value is True]
        )

    return child.map_partitions(
        run, preserves_partitioning=True
    ).set_name("filter")


def project_columns(expressions: list[BoundExpr], rows: list) -> list:
    """The SELECT list over one partition's rows, a column at a time."""
    columns = [_column_values(expr, rows) for expr in expressions]
    return list(zip(*columns)) if columns else [()] * len(rows)


def project_rows(
    child: RDD, expressions: list[BoundExpr], *, op: OperatorStamp
) -> RDD:
    """Evaluate the SELECT list over every partition."""
    count = _count_into(op)
    return child.map_partitions(
        lambda part: count(project_columns(expressions, part))
    ).set_name("project")


def limit_rows(child: RDD, count: int, op: OperatorStamp) -> RDD:
    """LIMIT pushed into individual partitions (Section 2.4), then a final
    single-partition pass takes the global first ``count``."""

    def take_local(part: list) -> list:
        return part[:count]

    local = child.map_partitions(take_local).set_name("limit_local")
    count_final = _count_into(op)

    def take_final(part: list) -> list:
        return count_final(part[:count])

    return local.coalesce(1).map_partitions(take_final).set_name("limit")


def distinct_rows(
    child: RDD,
    num_partitions: Optional[int] = None,
    *,
    op: OperatorStamp,
) -> RDD:
    out = child.distinct(num_partitions)
    out = out.map_partitions(_count_into(op), preserves_partitioning=True)
    return out.set_name("distinct")


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


def _column_values(expr: BoundExpr, rows: list) -> list:
    if isinstance(expr, BoundColumn):
        return list(map(operator.itemgetter(expr.index), rows))
    return [expr.eval(row) for row in rows]


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


def row_sort_keys(
    keys: list[tuple[BoundExpr, bool]], rows: list
) -> list[tuple]:
    """:func:`flat_sort_keys` of a partition of rows."""
    return flat_sort_keys(
        keys, [_column_values(expr, rows) for expr, __ in keys]
    )


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

    def partition_batch(self, batch: ColumnBatch, key) -> np.ndarray:
        vectors = [batch.vector(i) for i in key]
        arrays = _ascending_arrays(self._keys, vectors) if len(key) == 1 else None
        if arrays is not None and all(
            # (flag, value): the flag of every non-NULL key is the same.
            bound[0] is self._keys[0][1] for bound in self._bounds
        ):
            bounds = ordered_bounds(
                [bound[1] for bound in self._bounds], arrays[0]
            )
            if bounds is not None:
                return np.searchsorted(bounds, arrays[0], side="left")
        columns = [vector.to_python_list() for vector in vectors]
        return np.asarray(
            self.partition_many(flat_sort_keys(self._keys, columns)),
            dtype=np.int64,
        )


def _with_columns(
    child: RDD,
    batched: bool,
    expressions: list[BoundExpr],
    width: Optional[int],
) -> tuple[RDD, list[int]]:
    """``child`` as an RDD of ColumnBatches in which every expression is
    a column: a plain column reference is that column, anything else is
    evaluated — by its vector kernel over a batch, by ``eval`` over rows,
    which are transposed here, once — and appended after the ``width``
    row columns.  Returns the RDD and the expressions' ordinals."""
    from repro.sql.codegen import compile_vector_expression

    computed = [e for e in expressions if not isinstance(e, BoundColumn)]
    if computed and width is None:
        raise ValueError("computed key columns need the row width")
    appended = iter(range(width or 0, (width or 0) + len(computed)))
    ordinals = [
        expr.index if isinstance(expr, BoundColumn) else next(appended)
        for expr in expressions
    ]
    if batched:
        if not computed:
            return child, ordinals
        kernels = [compile_vector_expression(e)[0] for e in computed]

        def run(_: int, part: list) -> list:
            return [
                ColumnBatch(
                    batch.entries + [kernel(batch) for kernel in kernels],
                    batch.num_rows,
                )
                for batch in part
            ]

    else:

        def run(_: int, part: list) -> list:
            row_width = width
            if row_width is None:
                row_width = len(part[0]) if part else 0
            columns = transpose_rows(part, row_width)
            columns += [_column_values(expr, part) for expr in computed]
            return [ColumnBatch.from_columns(columns, len(part))]

    return MapPartitionsRDD(child, run, name="map"), ordinals


def sort_batches(
    child: RDD,
    batched: bool,
    keys: list[tuple[BoundExpr, bool]],
    width: int,
    *,
    op: OperatorStamp,
) -> RDD:
    """ORDER BY over batches (``batched``) or rows; yields batches of the
    ``width`` row columns.  The ORDER BY columns cross the exchange as
    what they are — columns of the row, or computed ones beside it — and
    each reduce partition is ordered by one stable ``argsort``/``lexsort``
    when they are all plain numerics, by ``sorted()`` over the flat keys
    otherwise."""
    keyed, ordinals = _with_columns(
        child, batched, [expr for expr, __ in keys], width
    )

    def keys_of(batch: ColumnBatch, rows: np.ndarray) -> list[tuple]:
        return flat_sort_keys(
            keys,
            [batch.vector(i).gather(rows).to_python_list() for i in ordinals],
        )

    def order(batch: ColumnBatch) -> Sequence[int]:
        vectors = [batch.vector(i) for i in ordinals]
        arrays = _ascending_arrays(keys, vectors)
        if arrays is not None:
            if len(arrays) == 1:
                return np.argsort(arrays[0], kind="stable")
            return np.lexsort(arrays[::-1])
        flat = flat_sort_keys(
            keys, [vector.to_python_list() for vector in vectors]
        )
        return sorted(range(batch.num_rows), key=flat.__getitem__)

    ordered = keyed.sort_batches(
        tuple(ordinals),
        keys_of,
        lambda bounds: SortPartitioner(bounds, keys),
        order,
    )
    count_key = op.key

    def finish(part: list) -> list:
        out = [
            ColumnBatch(batch.entries[:width], batch.num_rows)
            for batch in part
        ]
        record_operator_rows(count_key, sum(map(len, out)))
        return out

    return ordered.map_partitions(
        finish, preserves_partitioning=True
    ).set_name("sort")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _partial_aggregate_partition(
    part: list,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
) -> list:
    """Task-local aggregation: one pass producing (group_key, accs) pairs.

    State lives in a :class:`SpillableGroups` registered with the
    accountant, charged incrementally as groups appear — so an over-cap
    reservation mid-partition can spill buckets to simulated disk and
    the pass completes in bounded memory, with output identical to the
    in-memory path."""
    state = SpillableGroups(
        [spec.function for spec in specs], "hash_aggregate"
    )
    if not group_exprs:
        # Global aggregation: an empty input still yields one group so
        # COUNT(*) over zero rows returns 0, not zero rows.
        state.live_accs(())
        state.charge_pending()
    for row in part:
        key = tuple(expr.eval(row) for expr in group_exprs)
        state.update_row(
            key,
            [
                spec.argument.eval(row) if spec.argument is not None else None
                for spec in specs
            ],
        )
    return state.finish_groups()


def partial_aggregate_rdd(
    child: RDD,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Phase 1, row mode: task-local aggregation of a row RDD; each task
    yields its (group key, accs) pairs as one partial batch."""
    key = op.key if op is not None else None

    def run(part: list) -> list:
        out = _partial_aggregate_partition(part, group_exprs, specs)
        if key is not None:
            record_operator_rows(key, len(out))
        return [partials_batch(out, len(group_exprs), specs)]

    return child.map_partitions(run).set_name("partial_aggregate")


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
    vectorized: bool,
) -> RDD:
    """Phase 2b: merge each reduce partition's partials per group and
    finish them — one :func:`merge_partials` + :func:`finish_partials`
    yielding a batch (``vectorized``), or the per-pair reference loop
    yielding rows."""
    count_key = final_op.key

    def run_batches(part: list) -> list:
        batch = finish_partials(
            merge_partials(ColumnBatch.concat(part), num_keys, specs),
            num_keys,
            specs,
        )
        record_operator_rows(count_key, batch.num_rows)
        return [batch]

    def run_rows(part: list) -> list:
        merged: dict = {}
        for batch in part:
            for key, accs in partials_pairs(batch, num_keys, specs):
                if key in merged:
                    merged[key] = [
                        spec.function.merge(left, right)
                        for spec, left, right in zip(specs, merged[key], accs)
                    ]
                else:
                    merged[key] = accs
        rows = [
            tuple(key)
            + tuple(
                spec.function.finish(acc) for spec, acc in zip(specs, accs)
            )
            for key, accs in merged.items()
        ]
        record_operator_rows(count_key, len(rows))
        return rows

    return exchanged.map_partitions(
        run_batches if vectorized else run_rows
    ).set_name("final_aggregate")


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _key_function(keys: list[BoundExpr]) -> Callable[[tuple], Any]:
    if len(keys) == 1:
        key = keys[0]
        return lambda row: key.eval(row)
    return lambda row: tuple(key.eval(row) for key in keys)


def _key_column(keys: list[BoundExpr], rows: list) -> list:
    """``_key_function(keys)`` of every row, built a column at a time."""
    if len(keys) == 1:
        return _column_values(keys[0], rows)
    return project_columns(keys, rows)


def _has_null(key: Any, num_keys: int) -> bool:
    """Does an equi-join key have a NULL component?  Then, in SQL, it
    equals nothing — not even another NULL."""
    return key is None if num_keys == 1 else None in key


def keyed_batches(
    child: RDD,
    batched: bool,
    keys: list[BoundExpr],
    width: Optional[int],
    partitioner: Partitioner,
    stats_collectors: tuple = (),
) -> BatchShuffleDependency:
    """The exchange of ``child``'s rows by ``keys``: its dependency,
    whose ``pairs`` are ``(key, row)``.  ``width`` may be unknown (None)
    when every key is a column of the row."""
    keyed, ordinals = _with_columns(child, batched, keys, width)
    return BatchShuffleDependency(
        keyed,
        partitioner,
        key=ordinals[0] if len(keys) == 1 else tuple(ordinals),
        value=None if width is None else tuple(range(width)),
        stats_collectors=stats_collectors,
    )


def _emit_joined(
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    num_keys: int = 1,
) -> Callable[[tuple], list]:
    left_nulls = (None,) * left_width
    right_nulls = (None,) * right_width

    def emit(pair: tuple) -> list:
        key, (left_rows, right_rows) = pair
        out: list[tuple] = []
        if left_rows and right_rows and not _has_null(key, num_keys):
            for left_row in left_rows:
                matched = False
                for right_row in right_rows:
                    combined = tuple(left_row) + tuple(right_row)
                    if residual is None or residual.eval(combined) is True:
                        out.append(combined)
                        matched = True
                if not matched and join_type in ("left", "full"):
                    out.append(tuple(left_row) + right_nulls)
            if join_type in ("right", "full"):
                for right_row in right_rows:
                    matched = any(
                        residual is None
                        or residual.eval(tuple(lr) + tuple(right_row)) is True
                        for lr in left_rows
                    )
                    if not matched:
                        out.append(left_nulls + tuple(right_row))
            return out
        if join_type in ("left", "full"):
            out.extend(tuple(row) + right_nulls for row in left_rows)
        if join_type in ("right", "full"):
            out.extend(left_nulls + tuple(row) for row in right_rows)
        return out

    return emit


def _flat_map_counted(
    rdd: RDD, emit: Callable[[Any], list], op: Optional[OperatorStamp]
) -> RDD:
    """``rdd.flat_map(emit)`` that credits each partition's output rows
    to the join's plan-quality stamp (once per partition; an empty
    partition ran no emit and credits nothing)."""
    if op is None:
        return rdd.flat_map(emit)
    key = op.key

    def run(part: list) -> list:
        out = [row for item in part for row in emit(item)]
        if part:
            record_operator_rows(key, len(out))
        return out

    return rdd.map_partitions(run)


def shuffle_join(
    ctx: "EngineContext",
    left: "RDD | BatchShuffleDependency",
    right: "RDD | BatchShuffleDependency",
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    partitioner: Partitioner,
    num_keys: int = 1,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Repartition both sides by key and join corresponding partitions.

    A side is the :func:`keyed_batches` dependency to read it through,
    or the ``(key, row)`` pairs of one PDE already shuffled
    (:func:`pre_shuffle_side`): cogroup sees its partitioner matches and
    uses a narrow dependency, so the pre-shuffle work is reused, not
    repeated.
    """
    grouped = CoGroupedRDD(ctx, [left, right], partitioner)
    emit = _emit_joined(
        join_type, left_width, right_width, residual, num_keys
    )
    return _flat_map_counted(grouped, emit, op).set_name(f"{join_type}_join")


def copartitioned_join(
    ctx: "EngineContext",
    left: RDD,
    right: RDD,
    left_keys: list[BoundExpr],
    right_keys: list[BoundExpr],
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    partitioner: Partitioner,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Join two tables co-partitioned on the join key (Section 3.4): both
    keyed RDDs inherit the stored partitioning, so cogroup is all-narrow
    and no shuffle happens."""
    sides = []
    for side, keys, name in (
        (left, left_keys, "copartition_key_left"),
        (right, right_keys, "copartition_key_right"),
    ):
        keyed = MapPartitionsRDD(
            side,
            lambda __, part, keys=keys: list(
                zip(_key_column(keys, part), part)
            ),
            name=name,
        )
        keyed.partitioner = partitioner
        sides.append(keyed)
    grouped = CoGroupedRDD(ctx, sides, partitioner)
    emit = _emit_joined(
        join_type, left_width, right_width, residual, len(left_keys)
    )
    return _flat_map_counted(grouped, emit, op).set_name("copartitioned_join")


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


def broadcast_probe(
    ctx: "EngineContext",
    build: ColumnBatch,
    stream_keys: list[BoundExpr],
    build_keys: list[BoundExpr],
    join_type: str,
    stream_is_left: bool,
    residual: Optional[BoundExpr],
) -> tuple[BroadcastProbe, int]:
    """Map join (Section 3.1.1) as a batch-chain link, replacing
    :func:`broadcast_join`'s per-row ``emit``: the link and how many of
    its expressions are interpreted."""
    from repro.sql.codegen import (
        compile_vector_expression,
        compile_vector_predicate,
    )

    metrics = ctx.tracer.metrics
    interpreted = 0
    kernels = []
    for key in stream_keys:
        kernel, count = compile_vector_expression(key, metrics)
        kernels.append(kernel)
        interpreted += count
    predicate = None
    if residual is not None:
        predicate, count = compile_vector_predicate(residual, metrics)
        interpreted += count
    # Hash the small side once and broadcast it.
    build_key_vectors = [
        compile_vector_expression(key)[0](build) for key in build_keys
    ]
    link = BroadcastProbe(
        _charge_build_side(ctx, JoinBuild(build, build_key_vectors), build),
        kernels,
        stream_is_left,
        (join_type == "left" and stream_is_left)
        or (join_type == "right" and not stream_is_left),
        predicate,
    )
    return link, interpreted


def broadcast_join(
    ctx: "EngineContext",
    stream_side: RDD,
    build_rows: list[tuple],
    stream_keys: list[BoundExpr],
    build_keys: list[BoundExpr],
    join_type: str,
    stream_is_left: bool,
    stream_width: int,
    build_width: int,
    residual: Optional[BoundExpr],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Map join (Section 3.1.1), row mode: hash the small side once,
    broadcast it, and join each partition of the large side with only
    map tasks."""
    table: dict[Any, list[tuple]] = {}
    for key, row in zip(_key_column(build_keys, build_rows), build_rows):
        if not _has_null(key, len(build_keys)):
            table.setdefault(key, []).append(row)
    broadcast = _charge_build_side(
        ctx, table, ColumnBatch.from_rows(build_rows, build_width)
    )

    stream_key_fn = _key_function(stream_keys)
    build_nulls = (None,) * build_width
    outer_stream = (
        (join_type == "left" and stream_is_left)
        or (join_type == "right" and not stream_is_left)
    )

    def emit(row: tuple) -> list:
        # (A stream key with a NULL component finds nothing: the table
        # holds no such key.)
        matches = broadcast.value.get(stream_key_fn(row), ())
        out: list[tuple] = []
        for build_row in matches:
            if stream_is_left:
                combined = tuple(row) + tuple(build_row)
            else:
                combined = tuple(build_row) + tuple(row)
            if residual is None or residual.eval(combined) is True:
                out.append(combined)
        if not out and outer_stream:
            if stream_is_left:
                out.append(tuple(row) + build_nulls)
            else:
                out.append(build_nulls + tuple(row))
        return out

    return _flat_map_counted(stream_side, emit, op).set_name("broadcast_join")


def cross_join(
    ctx: "EngineContext",
    left: RDD,
    right_rows: list[tuple],
    right_width: int,
    residual: Optional[BoundExpr],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Broadcast nested-loop join for key-less joins."""
    broadcast = _charge_build_side(
        ctx, right_rows, ColumnBatch.from_rows(right_rows, right_width)
    )

    def emit(row: tuple) -> list:
        out = []
        for right_row in broadcast.value:
            combined = tuple(row) + tuple(right_row)
            if residual is None or residual.eval(combined) is True:
                out.append(combined)
        return out

    return _flat_map_counted(left, emit, op).set_name("cross_join")


def pre_shuffle_side(
    ctx: "EngineContext",
    side: RDD,
    keys: list[BoundExpr],
    partitioner: Partitioner,
    stats_collectors: tuple = (),
    batched: bool = False,
    width: Optional[int] = None,
) -> tuple[RDD, BatchShuffleDependency]:
    """PDE: run the map (pre-shuffle) stage of one join side *now*.

    Returns the shuffled side — an RDD of row batches whose map outputs
    are already materialized — plus its dependency, whose statistics the
    optimizer reads before deciding the join strategy.
    """
    dep = keyed_batches(
        side, batched, keys, width, partitioner, stats_collectors
    )
    ctx.materialize_dependency(dep)
    return ShuffledRDD.of(dep), dep


def pre_shuffled_pairs(shuffled: ShuffledRDD) -> RDD:
    """A :func:`pre_shuffle_side` result as the ``(key, row)`` pairs a
    cogroup reads narrowly."""
    pairs_of = shuffled.shuffle_dep.pairs
    pairs = shuffled.map_partitions(
        lambda part: [pair for batch in part for pair in pairs_of(batch)],
        preserves_partitioning=True,
    )
    return pairs.set_name("shuffle")


def repartition_rows(
    child: RDD,
    keys: list[BoundExpr],
    partitioner: Partitioner,
    op: Optional[OperatorStamp] = None,
    batched: bool = False,
    width: Optional[int] = None,
) -> RDD:
    """DISTRIBUTE BY: hash rows to partitions by key expressions, keeping
    rows (not pairs) as output."""
    dep = keyed_batches(child, batched, keys, width, partitioner)
    values = rows_of(ShuffledRDD.of(dep), width)
    if op is not None:  # a load-time DISTRIBUTE BY has no plan node
        values = values.map_partitions(
            _count_into(op), preserves_partitioning=True
        )
    values = values.set_name("distribute_by")
    values.partitioner = partitioner
    return values


def semi_join_probe(
    key_fn: Callable[[tuple], Any],
    value_set: frozenset,
    has_null: bool,
    negated: bool,
) -> Callable[[tuple], bool]:
    """Row predicate for ``key [NOT] IN (subquery values)``.

    SQL three-valued semantics: a NULL key is never TRUE; NOT IN over a
    set containing NULL is never TRUE for any row.
    """

    def keep(row: tuple) -> bool:
        value = key_fn(row)
        if value is None:
            return False
        if negated:
            if has_null:
                return False
            return value not in value_set
        return value in value_set

    return keep


def semi_join_filter(
    ctx: "EngineContext",
    child: RDD,
    key: BoundExpr,
    values: list,
    negated: bool,
    op: OperatorStamp,
) -> RDD:
    """Filter ``child`` by membership of ``key`` in the collected subquery
    result (broadcast to all tasks)."""
    has_null = any(value is None for value in values)
    try:
        value_set = frozenset(v for v in values if v is not None)
    except TypeError:
        # Unhashable subquery values: linear probe.
        value_list = [v for v in values if v is not None]

        def keep_linear(row: tuple) -> bool:
            value = key.eval(row)
            if value is None:
                return False
            found = value in value_list
            if negated:
                return not found and not has_null
            return found

        return _counted_filter(child, keep_linear, op, "semi_join")
    broadcast = _charge_build_side(
        ctx, value_set, ColumnBatch.from_columns([list(value_set)])
    )
    keep = semi_join_probe(
        lambda row: key.eval(row), broadcast.value, has_null, negated
    )
    return _counted_filter(child, keep, op, "semi_join")


def values_rdd(ctx: "EngineContext", rows: list[tuple]) -> RDD:
    return ctx.parallelize(rows, num_partitions=1).set_name("values")


def union_rdds(
    ctx: "EngineContext",
    children: list[RDD],
    op: OperatorStamp,
) -> RDD:
    out = ctx.union(children).map_partitions(_count_into(op))
    return out.set_name("union_all")


def default_partitioner(
    ctx: "EngineContext", num_partitions: Optional[int] = None
) -> HashPartitioner:
    return HashPartitioner(num_partitions or ctx.default_parallelism)
