"""RDD dependencies: the edges of the lineage graph.

Narrow dependencies (each output partition depends on a bounded set of
parent partitions) let the scheduler pipeline operators inside one task and
recompute a lost partition by recomputing only its parents.  Shuffle (wide)
dependencies are stage boundaries: the parent stage materializes bucketed
map output, and child tasks fetch buckets from every map task.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from repro.columnar.batch import ColumnBatch
from repro.engine.partitioner import Partitioner, RangePartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD

#: A sort exchange's sampler: each map task keeps a row when its one
#: ``random()`` draw from ``Random(SORT_SAMPLE_SEED * 1_000_003 +
#: map_partition)`` is below ``SORT_SAMPLE_FRACTION`` — seeded, so a
#: re-run map task draws the same sample.
SORT_SAMPLE_SEED = 29
SORT_SAMPLE_FRACTION = 0.1


class Dependency:
    """Base class: a dependency on a parent RDD."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Each child partition depends on a bounded set of parent partitions."""

    def parents(self, partition: int) -> list[int]:
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition i depends exactly on parent partition i."""

    def parents(self, partition: int) -> list[int]:
        return [partition]


class RangeDependency(NarrowDependency):
    """Used by union: child partitions [out_start, out_start+length) map to
    parent partitions [in_start, in_start+length)."""

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int):
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parents(self, partition: int) -> list[int]:
        if self.out_start <= partition < self.out_start + self.length:
            return [partition - self.out_start + self.in_start]
        return []


class ManyToOneDependency(NarrowDependency):
    """Used by coalesce: child partition i depends on an explicit group of
    parent partitions."""

    def __init__(self, rdd: "RDD", groups: list[list[int]]):
        super().__init__(rdd)
        self.groups = groups

    def parents(self, partition: int) -> list[int]:
        return self.groups[partition]


class Aggregator:
    """Map-side and reduce-side combining functions for a shuffle.

    Mirrors Spark's Aggregator: ``create_combiner`` seeds a combiner from
    the first value of a key, ``merge_value`` folds further values in, and
    ``merge_combiners`` merges partial combiners across map outputs.
    """

    def __init__(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
    ):
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners


class ShuffleDependency(Dependency):
    """A wide dependency: repartition parent records by key.

    What crosses the exchange is always one keyed
    :class:`~repro.columnar.batch.ColumnBatch` per map task
    (:meth:`keyed_batch`), whose ``key`` columns choose each row's reduce
    partition; a reduce task gets the rows of its buckets back as
    :meth:`records`.  For this class — the RDD API's — parent records are
    ``(key, value)`` pairs: they are transposed into a key column and a
    value column on the way in, and read back as pairs.  When
    ``aggregator`` is set and ``map_side_combine`` is true, map tasks
    pre-aggregate per key before that (the "task-local aggregations" of
    Section 6.2.2).  What each map task reports beside its buckets is
    the shuffle's business (:class:`~repro.engine.shuffle.MapStatus`):
    PDE reads it before the reduce stage is planned (Section 3.1).
    """

    _next_shuffle_id = 0

    #: The batch columns holding the partitioning key and the value: an
    #: ordinal (the column's values) or a tuple of them (tuples).
    key: Any = 0
    value: Any = 1
    #: Whether ``partitioner`` is final.  A sort exchange's is not until
    #: its bounds are picked from its own map output; until then its map
    #: outputs are stored whole (:class:`SortShuffleDependency`).
    resolved = True

    def __init__(
        self,
        rdd: "RDD",
        partitioner: Partitioner,
        aggregator: Optional[Aggregator] = None,
        map_side_combine: bool = False,
    ):
        super().__init__(rdd)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None
        self.shuffle_id = ShuffleDependency._next_shuffle_id
        ShuffleDependency._next_shuffle_id += 1

    def keyed_batch(self, records: list) -> ColumnBatch:
        """One map task's records as the batch it writes."""
        if self.map_side_combine:
            aggregator = self.aggregator
            combined: dict[Any, Any] = {}
            for key, value in records:
                if key in combined:
                    combined[key] = aggregator.merge_value(combined[key], value)
                else:
                    combined[key] = aggregator.create_combiner(value)
            return ColumnBatch.from_columns(
                [list(combined), list(combined.values())]
            )
        return ColumnBatch.from_rows(records, 2)

    def map_output(
        self, batch: ColumnBatch, map_partition: int
    ) -> tuple[ColumnBatch, Any]:
        """What map task ``map_partition`` stores of its keyed batch, and
        the sample its status carries beside its buckets' sizes (None:
        none)."""
        return batch, None

    def bucketed(self, batch: ColumnBatch) -> tuple[ColumnBatch, list[int]]:
        """``batch`` in bucket order, each bucket keeping its rows in the
        order they arrived, and where each bucket starts (one offset per
        reduce partition, then the row count).  No id is computed for a
        single reduce partition, which takes every row as it comes (and
        no row means maybe no column to read a key from)."""
        num_reduces = self.partitioner.num_partitions
        rows = batch.num_rows
        if num_reduces == 1 or not rows:
            return batch, [0] + [rows] * num_reduces
        ids = self.partitioner.partition_batch(batch, self.key)
        counts = np.bincount(ids, minlength=num_reduces)
        if len(counts) != num_reduces:
            raise ValueError(
                f"{self.partitioner!r} placed a key in partition "
                f"{len(counts) - 1}"
            )
        if (ids[1:] < ids[:-1]).any():
            # (Narrow ids let numpy pick its radix sort.)
            narrow = np.uint16 if num_reduces <= 2 ** 16 else np.int64
            batch = batch.take(np.argsort(ids.astype(narrow), kind="stable"))
        return batch, [0, *accumulate(counts.tolist())]

    def pairs(self, batch: ColumnBatch) -> list:
        """``(key, value)`` of every row of a fetched batch."""
        return list(zip(batch.values(self.key), batch.values(self.value)))

    def records(self, batch: ColumnBatch) -> list:
        """What a reduce task computes on: here, the pairs again."""
        return self.pairs(batch)


class BatchShuffleDependency(ShuffleDependency):
    """The exchange between SQL operators: the parent's partitions hold
    ColumnBatches (one per task, normally) and the reduce side is handed
    the fetched batch itself.  ``key`` names the partitioning columns.
    ``map_side_combine`` only says the map output is already one record
    per key and task (the cost model scales such shuffles differently).
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: Partitioner,
        key: Any,
        map_side_combine: bool = False,
    ):
        super().__init__(rdd, partitioner)
        self.key = key
        self.map_side_combine = map_side_combine

    def keyed_batch(self, records: list) -> ColumnBatch:
        return ColumnBatch.concat(records)

    def records(self, batch: ColumnBatch) -> list:
        return [batch]


class SortShuffleDependency(BatchShuffleDependency):
    """The exchange of a total sort (``RDD.sort_batches``).

    A map task stores its output as one *run*: ordered by ``order``
    (the sort's one stable permutation of a batch) and, under a LIMIT,
    cut to its first ``top`` rows.  In the same pass it draws the sample
    the range bounds are picked from — the partitioner's ``keys_at`` of
    the rows the seeded sampler keeps (one draw per row, in arrival
    order) — and publishes it as its map-output statistic.  A range
    bucket of a run is one slice of it (``RangePartitioner.cut``).

    A sort into more than one partition without a ``top`` needs bounds:
    it is one range until :meth:`resolve` hands it the partitioner over
    them, and its runs wait uncut meanwhile.  A run written after that —
    by lineage recovery, speculation, a plan executed again — is cut as
    it is stored, and draws no sample.
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: RangePartitioner,
        key: Any,
        order: Callable[[ColumnBatch], Sequence[int]],
        num_partitions: int,
        top: Optional[int] = None,
    ):
        super().__init__(rdd, partitioner, key)
        self.order = order
        self.top = top
        self.resolved = top is not None or num_partitions == 1

    def map_output(
        self, batch: ColumnBatch, map_partition: int
    ) -> tuple[ColumnBatch, Optional[list]]:
        rows = batch.num_rows
        if not rows:
            return batch, None if self.resolved else []
        order = np.asarray(self.order(batch), dtype=np.int64)
        run = batch.take(order)
        sample = None
        if not self.resolved:
            draw = random.Random(
                SORT_SAMPLE_SEED * 1_000_003 + map_partition
            ).random
            fraction = SORT_SAMPLE_FRACTION
            picked = [i for i in range(rows) if draw() < fraction]
            # Keyed where the run holds them, the sampled rows come out
            # sorted: sorting the merged sample only merges runs (and,
            # being stable, ends as it would from arrival order).
            position = np.empty(rows, dtype=np.int64)
            position[order] = np.arange(rows)
            sample = self.partitioner.keys_at(
                run, self.key, np.sort(position[picked])
            )
        if self.top is not None and self.top < rows:
            run = run.slice(0, self.top)
        return run, sample

    def bucketed(self, batch: ColumnBatch) -> tuple[ColumnBatch, list[int]]:
        return batch, self.partitioner.cut(batch, self.key)

    def resolve(self, partitioner: RangePartitioner) -> None:
        """The bounds are picked: cut runs at ``partitioner``'s."""
        self.partitioner = partitioner
        self.resolved = True
