"""Physical operators: logical nodes lowered to RDD transformations.

Each helper takes child RDDs of row tuples and returns a new RDD.  The
planner (:mod:`repro.sql.planner`) decides *which* helper to use (join
strategies, PDE, map pruning); the helpers only build dataflow.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.cluster.worker import approximate_size_bytes
from repro.columnar.batch import CodedVector, ColumnBatch
from repro.columnar.table import ColumnarPartition
from repro.costmodel.models import SOURCE_MEMORY
from repro.datatypes import (
    DataType,
    DoubleType,
    IntegerType,
    LongType,
)
from repro.engine.dependencies import OneToOneDependency, ShuffleDependency
from repro.engine.memory import DRIVER_WORKER, EXECUTION
from repro.engine.partitioner import HashPartitioner, Partitioner
from repro.engine.rdd import (
    RDD,
    CoGroupedRDD,
    MapPartitionsRDD,
    PrunedRDD,
    ShuffledRDD,
)
from repro.engine.spill import SpillableGroups
from repro.engine.task import current_task_context
from repro.obs.planquality import OperatorStamp, record_operator_rows
from repro.sql.expressions import BoundColumn, BoundExpr
from repro.sql.functions import (
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


def _vector_validity(vector, n: int):
    """Positions holding non-NULL values, or None when all are valid."""
    data = vector.data
    if isinstance(data, np.ndarray):
        return vector.valid
    return np.fromiter((v is not None for v in data), dtype=bool, count=n)


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


class BatchAggregator:
    """Vectorized task-local hash aggregation over ColumnBatches.

    Produces exactly the ``(group_key, accumulators)`` pairs of
    :func:`_partial_aggregate_partition` — downstream merge/finish stages
    are shared with the row path, so the two pipelines differ only in how
    partials are built.  Group identity is resolved batch-at-a-time by
    factorizing each key column to small integers (:func:`_factorize`: a
    coded column never decodes), combining them into one composite code
    per row, and numbering the codes by first occurrence.  Accumulator updates use per-group numpy reductions
    whose accumulation order matches the row path's left-to-right updates.
    """

    def __init__(
        self,
        group_kernels: list,
        specs: list[AggregateSpec],
        arg_kernels: list,
    ):
        self.group_kernels = group_kernels
        self.specs = specs
        self.arg_kernels = arg_kernels
        #: Spillable group state, registered with the accountant's
        #: arbitration path for the running task's worker; ``groups``
        #: aliases its live dict so the update kernels stay unchanged.
        self.state = SpillableGroups(
            [spec.function for spec in specs], "batch_aggregate"
        )
        self.groups: dict[tuple, list] = self.state.groups

    # -- group identity -------------------------------------------------
    def _group_ids(self, batch) -> tuple[np.ndarray, list]:
        """(group id per row, local key list) for one batch; groups are
        numbered, and keyed by the values of, their first row."""
        n = batch.num_rows
        if not self.group_kernels:
            return np.zeros(n, dtype=np.int64), [()]
        vectors = [kernel(batch) for kernel in self.group_kernels]
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
        first_rows = first[present[order]]
        keys = list(
            zip(*[v.gather(first_rows).to_python_list() for v in vectors])
        )
        return gid_of[codes], keys

    # -- accumulator updates --------------------------------------------
    @staticmethod
    def _masked(data: np.ndarray, valid, gids: np.ndarray):
        if valid is None:
            return data, gids
        return data[valid], gids[valid]

    def _numeric_data(self, vector, n: int):
        """(values, group-able validity) when the argument is a numeric
        array the grouped reductions can run on; None otherwise."""
        data = vector.data
        if not isinstance(data, np.ndarray):
            return None
        if data.dtype == np.bool_ or not np.issubdtype(data.dtype, np.number):
            return None
        return data, _vector_validity(vector, n)

    def _update_count(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        n = batch.num_rows
        if fn.count_star or kernel is None:
            counts = np.bincount(gids, minlength=k)
        else:
            vector = kernel(batch)
            valid = _vector_validity(vector, n)
            if valid is None:
                counts = np.bincount(gids, minlength=k)
            else:
                counts = np.bincount(gids[valid], minlength=k)
        for accs, count in zip(group_accs, counts.tolist()):
            if count:
                accs[j] = accs[j] + count

    def _update_sum(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        vector = kernel(batch)
        numeric = self._numeric_data(vector, batch.num_rows)
        if numeric is None:
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        data, valid = numeric
        sub_data, sub_gids = self._masked(data, valid, gids)
        counts = np.bincount(sub_gids, minlength=k)
        if np.issubdtype(sub_data.dtype, np.integer):
            # Exact integer sums; bail to the row loop if a 64-bit
            # accumulator could overflow where Python ints would not.
            if sub_data.size and int(np.abs(sub_data).max()) > (2**62) // max(
                int(counts.max()), 1
            ):
                self._update_generic(j, fn, vector, batch, gids, group_accs)
                return
            sums = np.zeros(k, dtype=np.int64)
            np.add.at(sums, sub_gids, sub_data.astype(np.int64, copy=False))
        else:
            # np.bincount adds weights in input order: the same
            # left-to-right accumulation sequence as the row path.
            sums = np.bincount(sub_gids, weights=sub_data, minlength=k)
        for accs, count, value in zip(
            group_accs, counts.tolist(), sums.tolist()
        ):
            if count:
                accs[j] = value if accs[j] is None else accs[j] + value

    def _update_avg(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        vector = kernel(batch)
        numeric = self._numeric_data(vector, batch.num_rows)
        if numeric is None:
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        data, valid = numeric
        sub_data, sub_gids = self._masked(data, valid, gids)
        if sub_data.size and np.issubdtype(sub_data.dtype, np.integer) and int(
            np.abs(sub_data).max()
        ) > 2**52:
            # Float64 weights would round large ints differently per batch.
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        sums = np.bincount(sub_gids, weights=sub_data, minlength=k)
        counts = np.bincount(sub_gids, minlength=k)
        for accs, added, value in zip(
            group_accs, counts.tolist(), sums.tolist()
        ):
            if added:
                total, count = accs[j]
                accs[j] = (total + value, count + added)

    def _update_min_max(self, j, fn, kernel, batch, gids, group_accs):
        k = len(group_accs)
        vector = kernel(batch)
        numeric = self._numeric_data(vector, batch.num_rows)
        if numeric is None:
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        data, valid = numeric
        sub_data, sub_gids = self._masked(data, valid, gids)
        is_float = np.issubdtype(sub_data.dtype, np.floating)
        if is_float and np.isnan(sub_data).any():
            # NaN poisons np.minimum/maximum but not Python comparisons.
            self._update_generic(j, fn, vector, batch, gids, group_accs)
            return
        minimum = isinstance(fn, MinAggregate)
        if is_float:
            fill = np.inf if minimum else -np.inf
            extremes = np.full(k, fill, dtype=np.float64)
        else:
            info = np.iinfo(np.int64)
            fill = info.max if minimum else info.min
            extremes = np.full(k, fill, dtype=np.int64)
        reducer = np.minimum if minimum else np.maximum
        reducer.at(extremes, sub_gids, sub_data)
        counts = np.bincount(sub_gids, minlength=k)
        for accs, count, value in zip(
            group_accs, counts.tolist(), extremes.tolist()
        ):
            if count:
                accs[j] = fn.merge(accs[j], value)

    def _update_generic(self, j, fn, vector, batch, gids, group_accs):
        """Row-order fn.update loop: exact semantics for any aggregate."""
        values = vector.to_python_list() if vector is not None else None
        update = fn.update
        for r in range(batch.num_rows):
            accs = group_accs[gids[r]]
            accs[j] = update(
                accs[j], values[r] if values is not None else None
            )

    # -- public API ------------------------------------------------------
    def consume(self, batch) -> None:
        gids, keys = self._group_ids(batch)
        group_accs = []
        spilled_gids: set[int] = set()
        for g, key in enumerate(keys):
            accs = self.state.live_accs(key)
            if accs is None:
                # Key's bucket already spilled: the vectorized updates
                # below land in a discarded sink; the rows themselves
                # are routed raw afterwards and replayed at finish.
                spilled_gids.add(g)
                accs = [spec.function.initial() for spec in self.specs]
            group_accs.append(accs)
        for j, spec in enumerate(self.specs):
            fn = spec.function
            kernel = self.arg_kernels[j]
            if fn.distinct:
                vector = kernel(batch) if kernel is not None else None
                self._update_generic(j, fn, vector, batch, gids, group_accs)
            elif isinstance(fn, CountAggregate):
                self._update_count(j, fn, kernel, batch, gids, group_accs)
            elif isinstance(fn, SumAggregate):
                self._update_sum(j, fn, kernel, batch, gids, group_accs)
            elif isinstance(fn, AvgAggregate):
                self._update_avg(j, fn, kernel, batch, gids, group_accs)
            elif isinstance(fn, (MinAggregate, MaxAggregate)):
                self._update_min_max(j, fn, kernel, batch, gids, group_accs)
            else:
                vector = kernel(batch) if kernel is not None else None
                self._update_generic(j, fn, vector, batch, gids, group_accs)
        if spilled_gids:
            self._route_spilled_rows(batch, gids, keys, spilled_gids)
        # Charge this batch's accumulator growth (new groups only) to
        # the running task's execution pool; the reservation may itself
        # arbitrate, spilling buckets of the state just built.
        self.state.charge_pending()

    def _route_spilled_rows(
        self, batch, gids, keys, spilled_gids: set[int]
    ) -> None:
        """Append rows belonging to spilled buckets as raw
        ``(key, argument values)`` records, in arrival order."""
        columns = [
            kernel(batch).to_python_list() if kernel is not None else None
            for kernel in self.arg_kernels
        ]
        append_raw = self.state.append_raw
        for r in range(batch.num_rows):
            g = int(gids[r])
            if g in spilled_gids:
                append_raw(
                    keys[g],
                    [
                        column[r] if column is not None else None
                        for column in columns
                    ],
                )

    def memory_footprint_bytes(self) -> int:
        """Exact heap bytes of the accumulated (live) group state."""
        return approximate_size_bytes(self.groups)

    def finish(self) -> list:
        if (
            not self.group_kernels
            and not self.groups
            and not self.state.spilled
        ):
            # Global aggregation over an empty partition still yields one
            # group (COUNT(*) over zero rows is 0, not zero rows).
            self.state.live_accs(())
        return self.state.finish_groups()


#: Counters of the kernels' dictionary-domain evaluations: how many ran,
#: the distinct values they evaluated, the rows those stood for.
_DICTIONARY = (
    "batch.kernel.dictionary",
    "batch.dictionary.values",
    "batch.dictionary.rows",
)


class BatchPipelineRDD(RDD):
    """A fused columnar pipeline over cached blocks.

    scan -> chain of filter/project kernels (the scan's predicate is the
    chain's first filter) -> late materialization (row tuples) or a
    :class:`BatchAggregator` (partial ``(key, accs)`` pairs).

    Columns stay (possibly compressed) arrays throughout; Python row
    tuples only exist past the pipeline's exit.  One compute() call
    processes each ColumnarPartition block as one batch.
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
        rows: list[tuple] = []
        total_records = 0
        total_bytes = 0
        num_batches = 0
        chain_keys = self._op_keys.get("chain") or (None,) * len(self._chain)
        chain_rows_out = [0] * len(self._chain)
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
                if kind == "filter":
                    keep = payload(batch)
                    batch = batch.take(np.nonzero(keep)[0])
                    counters.inc("batch.kernel.filter")
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
            else:
                rows.extend(batch.materialize_rows())
        counters.inc("batch.batches", num_batches)
        counters.inc("batch.rows", total_records)
        # The kernels count their dictionary-domain evaluations; one task
        # runs at a time, so the difference is this task's.
        kernels, values, covered = (
            int(counters.value(name) - before)
            for name, before in zip(_DICTIONARY, dictionary_before)
        )
        self.ctx.tracer.instant(
            "batch.pipeline",
            "task",
            lane=task_ctx.worker.worker_id,
            stage_id=task_ctx.stage_id,
            partition=task_ctx.partition,
            batches=num_batches,
            rows=total_records,
            output_rows=len(rows) if aggregator is None else None,
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
        for key, count in zip(chain_keys, chain_rows_out):
            if key is not None:
                record_operator_rows(key, count)
        if aggregator is not None:
            out = aggregator.finish()
            aggregate_key = self._op_keys.get("aggregate")
            if aggregate_key is not None:
                record_operator_rows(aggregate_key, len(out))
            return out
        return rows


def scan_batch_pipeline(
    entry: "TableEntry",
    projected: Optional[list[str]],
    kept_partitions: Optional[list[int]],
    column_indices: list[int],
    chain: tuple = (),
    aggregate_factory: Optional[Callable[[], BatchAggregator]] = None,
    name: str = "batch_scan",
    op_keys: Optional[dict] = None,
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
    negated (strings, dates, ...); numeric columns negate instead and
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


def _descending(values: list, data_type: DataType) -> list:
    """A DESC column's values mapped so that ascending order of the
    result is descending order of the input (NULLs pass through; the
    key's NULL flag orders them)."""
    if not isinstance(data_type, (IntegerType, LongType, DoubleType)):
        return list(map(Descending, values))
    if None in values:
        return [None if value is None else -value for value in values]
    return list(map(operator.neg, values))


def _column_values(expr: BoundExpr, rows: list) -> list:
    if isinstance(expr, BoundColumn):
        return list(map(operator.itemgetter(expr.index), rows))
    return [expr.eval(row) for row in rows]


def row_sort_keys(
    keys: list[tuple[BoundExpr, bool]], rows: list
) -> list[tuple]:
    """One natively comparable ORDER BY key per row of a partition,
    built a column at a time.

    Each ORDER BY column contributes ``(flag, value)`` to a flat tuple
    that sorts *ascending* whatever the column's direction: ascending
    columns flag non-NULLs (NULLs first), descending columns flag NULLs
    (NULLs last) and invert their values — so range bounds, sorts,
    spilled runs and merges compare plain tuples in C, and equal flags
    mean both values are NULL or neither is, so NULL never meets ``<``.
    """
    parts: list = []
    for expr, ascending in keys:
        values = _column_values(expr, rows)
        if ascending:
            parts.append(map(operator.is_not, values, repeat(None)))
            parts.append(values)
        else:
            parts.append(map(operator.is_, values, repeat(None)))
            parts.append(_descending(values, expr.data_type))
    return list(zip(*parts))


def sort_rows(
    child: RDD,
    keys: list[tuple[BoundExpr, bool]],
    num_partitions: Optional[int] = None,
    *,
    op: OperatorStamp,
) -> RDD:
    """ORDER BY: each partition's key column is built at once and rides
    beside the rows through a range-partitioned sort."""
    out = child.sort_by_key_column(
        lambda part: row_sort_keys(keys, part), True, num_partitions
    )
    out = out.map_partitions(_count_into(op), preserves_partitioning=True)
    return out.set_name("sort")


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


def _merge_accumulators(
    specs: list[AggregateSpec],
) -> Callable[[list, list], list]:
    def merge(left: list, right: list) -> list:
        return [
            spec.function.merge(l, r)
            for spec, l, r in zip(specs, left, right)
        ]

    return merge


def partial_aggregate_rdd(
    child: RDD,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Phase-1 task-local aggregation producing (group key, accs) pairs."""
    key = op.key if op is not None else None

    def run(part: list) -> list:
        out = _partial_aggregate_partition(part, group_exprs, specs)
        if key is not None:
            record_operator_rows(key, len(out))
        return out

    return child.map_partitions(run).set_name("partial_aggregate")


def merge_partials(
    partials: RDD, specs: list[AggregateSpec], num_partitions: Optional[int]
) -> RDD:
    """Phase 2a: shuffle ``(group key, accs)`` partials by key into
    ``num_partitions`` reduce partitions and merge them per group."""
    merge = _merge_accumulators(specs)
    return partials.combine_by_key(
        create_combiner=lambda accs: accs,
        merge_value=merge,
        merge_combiners=merge,
        num_partitions=num_partitions,
    ).set_name("merge_aggregate")


def finish_aggregate(
    merged: RDD, specs: list[AggregateSpec], final_op: OperatorStamp
) -> RDD:
    """Phase 2b: turn merged ``(group key, accs)`` pairs into output rows."""

    def finish(pair: tuple) -> tuple:
        key, accs = pair
        finished = tuple(
            spec.function.finish(acc) for spec, acc in zip(specs, accs)
        )
        return tuple(key) + finished

    count = _count_into(final_op)

    def finish_partition(part: list) -> list:
        return count([finish(pair) for pair in part])

    return merged.map_partitions(finish_partition).set_name(
        "final_aggregate"
    )


def aggregate_rows(
    child: RDD,
    group_exprs: list[BoundExpr],
    specs: list[AggregateSpec],
    num_partitions: Optional[int] = None,
    partials: Optional[RDD] = None,
    partial_op: Optional[OperatorStamp] = None,
    *,
    final_op: OperatorStamp,
) -> RDD:
    """Two-phase hash aggregation.

    Phase 1 aggregates within each input partition ("task-local
    aggregations", Section 6.2.2); phase 2 shuffles (group key, partials)
    and merges.  A caller that already built the ``(key, accs)`` partials
    (the vectorized batch pipeline) passes them via ``partials`` and skips
    the row-at-a-time phase 1.  (The planner's PDE branch composes the
    same phases itself, to read bucket sizes between merge and finish.)
    """
    if partials is None:
        partials = partial_aggregate_rdd(
            child, group_exprs, specs, op=partial_op
        )
    merged = merge_partials(partials, specs, num_partitions)
    return finish_aggregate(merged, specs, final_op)


def global_aggregate_rows(
    child: RDD,
    specs: list[AggregateSpec],
    partials: Optional[RDD] = None,
    partial_op: Optional[OperatorStamp] = None,
    *,
    final_op: OperatorStamp,
) -> RDD:
    """Aggregation with no GROUP BY: all partials merge on one reducer."""
    return aggregate_rows(child, [], specs, num_partitions=1,
                          partials=partials, partial_op=partial_op,
                          final_op=final_op)


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


def _keyed_rows(child: RDD, keys: list[BoundExpr], name: str = "map") -> RDD:
    """``(key, row)`` pairs of ``child``, keyed a partition at a time."""
    return MapPartitionsRDD(
        child,
        lambda __, part: list(zip(_key_column(keys, part), part)),
        name=name,
    )


def _emit_joined(
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
) -> Callable[[tuple], list]:
    left_nulls = (None,) * left_width
    right_nulls = (None,) * right_width

    def emit(pair: tuple) -> list:
        __, (left_rows, right_rows) = pair
        out: list[tuple] = []
        if left_rows and right_rows:
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
        elif left_rows and join_type in ("left", "full"):
            out.extend(tuple(row) + right_nulls for row in left_rows)
        elif right_rows and join_type in ("right", "full"):
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
    left: RDD,
    right: RDD,
    left_keys: list[BoundExpr],
    right_keys: list[BoundExpr],
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    partitioner: Partitioner,
    pre_shuffled_left: Optional[RDD] = None,
    pre_shuffled_right: Optional[RDD] = None,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Repartition both sides by key and join corresponding partitions.

    ``pre_shuffled_*`` carry ShuffledRDDs whose map side PDE already
    materialized; cogroup sees their partitioner matches and uses a narrow
    dependency, so the pre-shuffle work is reused, not repeated.
    """
    keyed_left = pre_shuffled_left
    if keyed_left is None:
        keyed_left = _keyed_rows(left, left_keys)
    keyed_right = pre_shuffled_right
    if keyed_right is None:
        keyed_right = _keyed_rows(right, right_keys)
    grouped = CoGroupedRDD(ctx, [keyed_left, keyed_right], partitioner)
    emit = _emit_joined(join_type, left_width, right_width, residual)
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
    keyed_left = _keyed_rows(left, left_keys, "copartition_key_left")
    keyed_left.partitioner = partitioner
    keyed_right = _keyed_rows(right, right_keys, "copartition_key_right")
    keyed_right.partitioner = partitioner
    grouped = CoGroupedRDD(ctx, [keyed_left, keyed_right], partitioner)
    emit = _emit_joined(join_type, left_width, right_width, residual)
    return _flat_map_counted(grouped, emit, op).set_name("copartitioned_join")


def _charge_build_side(ctx: "EngineContext", value: Any):
    """Broadcast a join build structure, briefly double-charging it as
    ``join_build`` on the driver's execution pool so the peak-consumers
    view attributes build-side memory to joins (the live charge then
    rides the broadcast until the query releases its accounting)."""
    accountant = ctx.memory
    size = approximate_size_bytes(value)
    reserved = accountant.reserve(
        DRIVER_WORKER, EXECUTION, "join_build", size
    )
    broadcast = ctx.broadcast(value, size_bytes=size)
    accountant.release(DRIVER_WORKER, EXECUTION, "join_build", reserved)
    return broadcast


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
    """Map join (Section 3.1.1): hash the small side once, broadcast it,
    and join each partition of the large side with only map tasks."""
    table: dict[Any, list[tuple]] = {}
    for key, row in zip(_key_column(build_keys, build_rows), build_rows):
        table.setdefault(key, []).append(row)
    broadcast = _charge_build_side(ctx, table)

    stream_key_fn = _key_function(stream_keys)
    build_nulls = (None,) * build_width
    outer_stream = (
        (join_type == "left" and stream_is_left)
        or (join_type == "right" and not stream_is_left)
    )

    def emit(row: tuple) -> list:
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
    residual: Optional[BoundExpr],
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """Broadcast nested-loop join for key-less joins."""
    broadcast = _charge_build_side(ctx, right_rows)

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
) -> tuple[RDD, ShuffleDependency]:
    """PDE: run the map (pre-shuffle) stage of one join side *now*.

    Returns a ShuffledRDD whose map outputs are already materialized plus
    its dependency, whose statistics the optimizer reads before deciding
    the join strategy.
    """
    keyed = _keyed_rows(side, keys)
    shuffled = ShuffledRDD(
        keyed, partitioner, stats_collectors=stats_collectors
    )
    ctx.materialize_dependency(shuffled.shuffle_dep)
    return shuffled, shuffled.shuffle_dep


def repartition_rows(
    child: RDD,
    keys: list[BoundExpr],
    partitioner: Partitioner,
    op: Optional[OperatorStamp] = None,
) -> RDD:
    """DISTRIBUTE BY: hash rows to partitions by key expressions, keeping
    rows (not pairs) as output."""
    shuffled = _keyed_rows(child, keys).partition_by(partitioner)
    values = shuffled.values()
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
    broadcast = _charge_build_side(ctx, value_set)
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
