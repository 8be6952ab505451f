"""Resilient Distributed Datasets: immutable, partitioned, lineage-tracked.

An RDD is defined by its partitions, its dependencies on parent RDDs, and a
deterministic ``compute`` function per partition (Section 2.2).  All
transformations are lazy; actions call into the DAG scheduler.  Pair
operations (reduce_by_key, join, cogroup, ...) follow PySpark's convention
of living directly on RDD and requiring (key, value) elements at run time.

Determinism is load-bearing: recovery re-runs ``compute`` and must get the
same records, so samplers are seeded per partition and partitioners use a
stable hash.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.columnar.batch import ColumnBatch
from repro.engine.dependencies import (
    Aggregator,
    Dependency,
    ManyToOneDependency,
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
    SortShuffleDependency,
)
from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    ordered_array,
    stable_argsort,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.task import TaskContext


class RDD:
    """Base class for all RDDs.

    Subclasses implement :meth:`compute`; everything else (the operator
    algebra, caching, actions) is inherited.
    """

    def __init__(
        self,
        ctx: "EngineContext",
        num_partitions: int,
        dependencies: list[Dependency],
        partitioner: Optional[Partitioner] = None,
        name: str = "",
        rdd_id: Optional[int] = None,
    ):
        if num_partitions <= 0:
            raise ValueError("an RDD needs at least one partition")
        self.ctx = ctx
        self.id = ctx.new_rdd_id() if rdd_id is None else rdd_id
        self.num_partitions = num_partitions
        self.dependencies = dependencies
        self.partitioner = partitioner
        self.name = name or type(self).__name__
        self._cached = False

    # ------------------------------------------------------------------
    # Core contract
    # ------------------------------------------------------------------
    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        """Materialize partition ``split``.  Must be deterministic."""
        raise NotImplementedError

    def iterator(
        self, split: int, task_ctx: "TaskContext", counted: bool = True
    ) -> list:
        """Read a partition through the cache if this RDD is persisted
        (its records and bytes counted as the task's input unless the
        reader counts what it reads itself: ``counted=False``)."""
        # Cooperative cancellation point: every RDD in a narrow chain
        # passes through here, so an in-flight attempt of a cancelled
        # query stops at the next operator boundary.
        task_ctx.check_cancelled()
        if self._cached:
            cached = task_ctx.read_cached(self.id, split, counted)
            if cached is not None:
                return cached
            data = self.compute(split, task_ctx)
            task_ctx.write_cached(self.id, split, data)
            return data
        return self.compute(split, task_ctx)

    def preferred_workers(self, split: int) -> list[int]:
        """Workers that already hold this partition's data (locality)."""
        if self._cached:
            location = self.ctx.cache_tracker.location(self.id, split)
            if location is not None:
                return [location]
        for dep in self.dependencies:
            if isinstance(dep, OneToOneDependency):
                return dep.rdd.preferred_workers(split)
        return []

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def cache(self) -> "RDD":
        """Keep computed partitions in worker memory (one copy, no
        replication; lineage recovers lost blocks)."""
        self._cached = True
        return self

    persist = cache

    def unpersist(self) -> "RDD":
        self._cached = False
        self.ctx.cache_tracker.unpersist(self.id)
        return self

    @property
    def is_cached(self) -> bool:
        return self._cached

    # ------------------------------------------------------------------
    # Basic transformations
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: [fn(item) for item in part],
            name="map",
        )

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: [item for item in part if predicate(item)],
            preserves_partitioning=True,
            name="filter",
        )

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: [out for item in part for out in fn(item)],
            name="flat_map",
        )

    def map_partitions(
        self, fn: Callable[[Iterable[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: list(fn(part)),
            preserves_partitioning=preserves_partitioning,
            name="map_partitions",
        )

    def map_partitions_with_index(
        self, fn: Callable[[int, Iterable[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda split, part: list(fn(split, part)),
            preserves_partitioning=preserves_partitioning,
            name="map_partitions_with_index",
        )

    def glom(self) -> "RDD":
        """Each partition becomes a single list element."""
        return MapPartitionsRDD(self, lambda _, part: [list(part)], name="glom")

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        paired = self.map(lambda item: (item, None))
        reduced = paired.reduce_by_key(lambda a, _: a, num_partitions)
        return reduced.map(lambda pair: pair[0])

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample; seeded per partition for deterministic replay."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

        def sample_partition(split: int, part: Iterable[Any]) -> list:
            rng = random.Random(seed * 1_000_003 + split)
            return [item for item in part if rng.random() < fraction]

        return MapPartitionsRDD(
            self, sample_partition, preserves_partitioning=True, name="sample"
        )

    def key_by(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda item: (fn(item), item))

    def zip_with_index(self) -> "RDD":
        """Pairs each element with its global index.  Eagerly runs a count
        job to learn partition offsets, like Spark."""
        counts = self.ctx.run_job(self, lambda part: len(part))
        offsets = [0] * self.num_partitions
        running = 0
        for split, count in enumerate(counts):
            offsets[split] = running
            running += count

        def with_index(split: int, part: Iterable[Any]) -> list:
            base = offsets[split]
            return [(item, base + i) for i, item in enumerate(part)]

        return MapPartitionsRDD(
            self, with_index, preserves_partitioning=False, name="zip_with_index"
        )

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count without a shuffle (narrow many-to-one)."""
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def coalesce_grouped(self, groups: list[list[int]]) -> "RDD":
        """Coalesce with an explicit parent-partition grouping.

        PDE's skew-aware bin-packing (Section 3.1.2) computes the groups
        from observed partition sizes and applies them here.
        """
        return CoalescedRDD(self, len(groups), groups=groups)

    def repartition(self, num_partitions: int) -> "RDD":
        """Redistribute evenly via a shuffle on a synthetic key."""
        paired = self.map_partitions_with_index(
            lambda split, part: [
                ((split * 7919 + i), item) for i, item in enumerate(part)
            ]
        )
        shuffled = paired.partition_by(HashPartitioner(num_partitions))
        return shuffled.map(lambda pair: pair[1])

    # ------------------------------------------------------------------
    # Pair transformations
    # ------------------------------------------------------------------
    def map_values(self, fn: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: [(key, fn(value)) for key, value in part],
            preserves_partitioning=True,
            name="map_values",
        )

    def flat_map_values(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: [
                (key, out) for key, value in part for out in fn(value)
            ],
            preserves_partitioning=True,
            name="flat_map_values",
        )

    def keys(self) -> "RDD":
        return self.map(lambda pair: pair[0])

    def values(self) -> "RDD":
        return self.map(lambda pair: pair[1])

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Shuffle (key, value) pairs by key with the given partitioner."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def combine_by_key(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        aggregator = Aggregator(create_combiner, merge_value, merge_combiners)
        partitioner = self._target_partitioner(num_partitions)
        if self.partitioner == partitioner:
            # Already partitioned by key: combine locally, no shuffle.
            def combine_local(_: int, part: Iterable[Any]) -> list:
                combined: dict = {}
                for key, value in part:
                    if key in combined:
                        combined[key] = merge_value(combined[key], value)
                    else:
                        combined[key] = create_combiner(value)
                return list(combined.items())

            return MapPartitionsRDD(
                self, combine_local, preserves_partitioning=True,
                name="combine_local",
            )
        return ShuffledRDD(
            self,
            partitioner,
            aggregator=aggregator,
            map_side_combine=map_side_combine,
        )

    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        return self.combine_by_key(lambda value: value, fn, fn, num_partitions)

    def fold_by_key(
        self,
        zero: Any,
        fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        return self.combine_by_key(
            lambda value: fn(zero, value), fn, fn, num_partitions
        )

    def aggregate_by_key(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        return self.combine_by_key(
            lambda value: seq_fn(zero, value), seq_fn, comb_fn, num_partitions
        )

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        return self.combine_by_key(
            lambda value: [value],
            lambda acc, value: acc + [value],
            lambda left, right: left + right,
            num_partitions,
            map_side_combine=False,
        )

    def group_by(
        self, fn: Callable[[Any], Any], num_partitions: Optional[int] = None
    ) -> "RDD":
        return self.key_by(fn).group_by_key(num_partitions)

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        partitioner = self._target_partitioner(num_partitions, other)
        return CoGroupedRDD(self.ctx, [self, other], partitioner)

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner equi-join of two pair RDDs.

        When both sides are already partitioned the same way (Shark's
        co-partitioned tables, Section 3.4), cogroup uses narrow
        dependencies and no shuffle occurs.
        """
        def emit(pair):
            key, (left_values, right_values) = pair
            return [
                (key, (lv, rv)) for lv in left_values for rv in right_values
            ]

        return self.cogroup(other, num_partitions).flat_map(emit)

    def left_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        def emit(pair):
            key, (left_values, right_values) = pair
            if not right_values:
                return [(key, (lv, None)) for lv in left_values]
            return [
                (key, (lv, rv)) for lv in left_values for rv in right_values
            ]

        return self.cogroup(other, num_partitions).flat_map(emit)

    def right_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        def emit(pair):
            key, (left_values, right_values) = pair
            if not left_values:
                return [(key, (None, rv)) for rv in right_values]
            return [
                (key, (lv, rv)) for lv in left_values for rv in right_values
            ]

        return self.cogroup(other, num_partitions).flat_map(emit)

    def full_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        def emit(pair):
            key, (left_values, right_values) = pair
            if not left_values:
                return [(key, (None, rv)) for rv in right_values]
            if not right_values:
                return [(key, (lv, None)) for lv in left_values]
            return [
                (key, (lv, rv)) for lv in left_values for rv in right_values
            ]

        return self.cogroup(other, num_partitions).flat_map(emit)

    # ------------------------------------------------------------------
    # Sorting
    # ------------------------------------------------------------------
    def sort_by(
        self,
        key_fn: Callable[[Any], Any],
        ascending: bool = True,
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Total sort by a per-record key function."""

        def keyed(_: int, part: list) -> list:
            return [
                ColumnBatch.from_columns([list(map(key_fn, part)), part])
            ]

        def order(batch: ColumnBatch) -> Sequence[int]:
            keys = batch.vector(0)
            data = ordered_array(keys)
            if data is not None and ascending:
                return stable_argsort(data)
            return sorted(
                range(batch.num_rows),
                key=keys.to_python_list().__getitem__,
                reverse=not ascending,
            )

        batches = MapPartitionsRDD(self, keyed, name="map")
        return MapPartitionsRDD(
            batches.sort_batches(
                0,
                lambda bounds: RangePartitioner(bounds, ascending=ascending),
                order,
                num_partitions,
            ),
            lambda _, part: [
                item for batch in part for item in batch.values(1)
            ],
            name="sort",
        )

    def sort_batches(
        self,
        key: Any,
        partitioner_of: Callable[[list], RangePartitioner],
        order: Callable[[ColumnBatch], Sequence[int]],
        num_partitions: Optional[int] = None,
        top: Optional[int] = None,
    ) -> "RDD":
        """Total sort of an RDD whose partitions hold ColumnBatches: one
        exchange whose map side is the sample, then each reduce partition
        sorted.

        ``key`` names the batch columns the exchange partitions on,
        ``partitioner_of(bounds)`` is the range partitioner over bounds
        picked among the keys its ``keys_at`` builds, and ``order(batch)``
        the stable sorting permutation of a batch.  Every map task stores
        its partition as one run in that order and publishes a seeded
        sample of its keys (:class:`SortShuffleDependency`); the map stage
        runs now, bounds are picked from the merged sample — from every
        key of the runs when it is small — and the runs are cut at them.
        With ``top`` (an ORDER BY under a LIMIT) a run keeps its first
        ``top`` rows and the sort has one partition, so nothing runs now.

        One input partition and no ``num_partitions`` asked for is sorted
        in its own task, with no exchange: the one run the map side would
        store is that partition's stable sort (cut to ``top`` rows), and
        ranges would only re-sort slices of it.
        """

        def sort_partition(
            _: int, part: list, keep: Optional[int] = None
        ) -> list:
            # External sort: the buffer is charged to the task's
            # execution pool and sheds runs under memory pressure;
            # finish() orders runs + tail exactly as one in-memory
            # stable sort would.
            from repro.engine.spill import ExternalSorter

            sorter = ExternalSorter(order)
            for batch in part:
                sorter.extend(batch)
            run = sorter.finish()
            if keep is not None and keep < run.num_rows:
                run = run.slice(0, keep)
            return [run]

        if num_partitions is None and self.num_partitions == 1:
            return MapPartitionsRDD(
                self, functools.partial(sort_partition, keep=top), name="sort"
            )
        target = 1 if top is not None else (
            num_partitions or self.ctx.default_parallelism
        )
        dep = SortShuffleDependency(
            self, partitioner_of([]), key, order, target, top
        )
        if not dep.resolved:
            keys = self.ctx.materialize_dependency(dep).sample
            manager = self.ctx.shuffle_manager
            if len(keys) < max(20 * target, 100):
                # Small inputs fall back to exact keys so bounds stay
                # meaningful.
                keys = [
                    k
                    for run in manager.stored_runs(dep.shuffle_id)
                    for k in dep.partitioner.keys_at(run, key)
                ]
            sorted_keys = sorted(keys)
            step = max(1, len(sorted_keys) // target)
            dep.resolve(partitioner_of(sorted_keys[step::step][: target - 1]))
            self.ctx.scheduler.cut_runs(dep)
        return MapPartitionsRDD(
            ShuffledRDD.of(dep), sort_partition, name="sort"
        )

    def sort_by_key(
        self, ascending: bool = True, num_partitions: Optional[int] = None
    ) -> "RDD":
        return self.sort_by(lambda pair: pair[0], ascending, num_partitions)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def collect(self) -> list:
        parts = self.ctx.run_job(self, list)
        return [item for part in parts for item in part]

    def count(self) -> int:
        return sum(self.ctx.run_job(self, len))

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        def reduce_partition(part: list) -> list:
            if not part:
                return []
            acc = part[0]
            for item in part[1:]:
                acc = fn(acc, item)
            return [acc]

        partials = [
            item
            for part in self.ctx.run_job(self, reduce_partition)
            for item in part
        ]
        if not partials:
            raise ValueError("reduce on an empty RDD")
        acc = partials[0]
        for item in partials[1:]:
            acc = fn(acc, item)
        return acc

    def fold(self, zero: Any, fn: Callable[[Any, Any], Any]) -> Any:
        def fold_partition(part: list) -> Any:
            acc = zero
            for item in part:
                acc = fn(acc, item)
            return acc

        acc = zero
        for partial in self.ctx.run_job(self, fold_partition):
            acc = fn(acc, partial)
        return acc

    def aggregate(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
    ) -> Any:
        def agg_partition(part: list) -> Any:
            acc = zero
            for item in part:
                acc = seq_fn(acc, item)
            return acc

        acc = zero
        for partial in self.ctx.run_job(self, agg_partition):
            acc = comb_fn(acc, partial)
        return acc

    def take(self, n: int) -> list:
        """First n elements, scanning partitions incrementally."""
        if n <= 0:
            return []
        taken: list = []
        for split in range(self.num_partitions):
            parts = self.ctx.run_job(self, list, partitions=[split])
            taken.extend(parts[0])
            if len(taken) >= n:
                return taken[:n]
        return taken

    def first(self) -> Any:
        items = self.take(1)
        if not items:
            raise ValueError("first on an empty RDD")
        return items[0]

    def top(self, n: int, key: Callable[[Any], Any] = None) -> list:
        def top_partition(part: list) -> list:
            return sorted(part, key=key, reverse=True)[:n]

        partials = [
            item for part in self.ctx.run_job(self, top_partition) for item in part
        ]
        return sorted(partials, key=key, reverse=True)[:n]

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def mean(self) -> float:
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, item: (acc[0] + item, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if count == 0:
            raise ValueError("mean on an empty RDD")
        return total / count

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def count_by_key(self) -> dict:
        counts: dict = {}
        for key, __ in self.collect():
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count_by_value(self) -> dict:
        counts: dict = {}
        for item in self.collect():
            counts[item] = counts.get(item, 0) + 1
        return counts

    def collect_as_map(self) -> dict:
        return dict(self.collect())

    def lookup(self, key: Any) -> list:
        """Values for one key of a pair RDD — a fine-grained random read.

        Section 7.1: "while RDDs only support coarse-grained operations
        for their writes, read operations on them can be fine-grained,
        accessing just one record.  This would allow RDDs to be used as
        indices."  With a known partitioner only the partition holding
        ``key`` is read; otherwise every partition is scanned.
        """
        if self.partitioner is not None:
            split = self.partitioner.partition(key)
            parts = self.ctx.run_job(
                self,
                lambda part: [v for k, v in part if k == key],
                partitions=[split],
            )
            return parts[0]
        return [v for k, v in self.collect() if k == key]

    def foreach_partition(self, fn: Callable[[list], None]) -> None:
        def run(part: list) -> None:
            fn(part)

        self.ctx.run_job(self, run)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _target_partitioner(
        self, num_partitions: Optional[int], other: Optional["RDD"] = None
    ) -> Partitioner:
        """Pick the partitioner for a shuffle: reuse an existing one when a
        parent already has a compatible partitioning, else hash."""
        if num_partitions is not None:
            return HashPartitioner(num_partitions)
        for candidate in (self, other):
            if candidate is not None and candidate.partitioner is not None:
                return candidate.partitioner
        return HashPartitioner(self.ctx.default_parallelism)

    def set_name(self, name: str) -> "RDD":
        self.name = name
        return self

    def __repr__(self) -> str:
        return f"{self.name}[{self.id}] ({self.num_partitions} partitions)"


class DataRDD(RDD):
    """Source RDD over pre-split in-driver data (``ctx.parallelize``);
    ``prepare`` makes a slice its partition, in the slice's task."""

    def __init__(
        self, ctx: "EngineContext", slices: list[list], prepare=None
    ):
        super().__init__(ctx, max(len(slices), 1), [], name="parallelize")
        self._slices = slices if slices else [[]]
        self._prepare = prepare

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        data = list(self._slices[split])
        task_ctx.metrics.records_in += len(data)
        return data if self._prepare is None else self._prepare(data)


class MapPartitionsRDD(RDD):
    """Applies ``fn(split, partition) -> list`` over one parent partition."""

    def __init__(
        self,
        parent: RDD,
        fn: Callable[[int, list], list],
        preserves_partitioning: bool = False,
        name: str = "map_partitions",
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            [OneToOneDependency(parent)],
            partitioner=parent.partitioner if preserves_partitioning else None,
            name=name,
        )
        self._parent = parent
        self._fn = fn

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        return self._fn(split, self._parent.iterator(split, task_ctx))


class UnionRDD(RDD):
    """Concatenation of several RDDs; partitions are passed through."""

    def __init__(self, ctx: "EngineContext", rdds: list[RDD]):
        if not rdds:
            raise ValueError("union of zero RDDs")
        deps: list[Dependency] = []
        offset = 0
        for rdd in rdds:
            deps.append(RangeDependency(rdd, 0, offset, rdd.num_partitions))
            offset += rdd.num_partitions
        super().__init__(ctx, offset, deps, name="union")
        self._rdds = rdds

    def union(self, other: RDD) -> RDD:
        """The union of a union is the flat union: appending k times
        keeps one level of lineage, not k.  A cached union stays a
        parent — its own blocks are what readers must find."""
        if self._cached:
            return super().union(other)
        return UnionRDD(self.ctx, [*self._rdds, other])

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        offset = 0
        for rdd in self._rdds:
            if split < offset + rdd.num_partitions:
                return rdd.iterator(split - offset, task_ctx)
            offset += rdd.num_partitions
        raise IndexError(f"partition {split} out of range for union")


@dataclass
class TableBlock:
    """One block of a cached table: partition ``split`` of its cached
    lineage ``rdd``, and what the loading task reported about it."""

    rdd: RDD
    split: int
    stats: Any
    bytes: int
    rows: int
    #: Written by a load that arrived as a single block: a later one may
    #: absorb it (:meth:`BlockListRDD.absorbable`).
    delta: bool = False


class BlockListRDD(RDD):
    """A cached table's storage: one flat, ordered list of blocks.

    Partition ``i`` is block ``i`` read through its own cached lineage,
    so the table is one level deep however it was loaded.  A version is
    immutable: an append makes the next one (:meth:`extended`) over the
    same block objects, and a plan built on this one keeps reading its
    blocks — one that was replaced since recomputes from its lineage.
    """

    #: A block list is catalog state, not a dataset a program made: it
    #: is numbered from its own (negative) sequence, so a program's RDDs
    #: — and the names of their cached blocks in logs and traces — are
    #: numbered the same whether or not a table was (re)versioned between.
    _ids = itertools.count(1)

    def __init__(self, ctx: "EngineContext", blocks: list[TableBlock],
                 name: str = "blocks"):
        super().__init__(
            ctx,
            len(blocks),
            [
                RangeDependency(block.rdd, block.split, index, 1)
                for index, block in enumerate(blocks)
            ],
            name=name,
            rdd_id=-next(self._ids),
        )
        self.blocks = blocks
        #: Per-block views, in block order (map pruning, PDE sizing).
        self.stats = [block.stats for block in blocks]
        self.bytes = [block.bytes for block in blocks]
        self.row_count = sum(block.rows for block in blocks)
        self.size_bytes = sum(self.bytes)

    def absorbable(self, rows: int, target_bytes: int) -> list[TableBlock]:
        """The trailing deltas a single-block write of ``rows`` rows
        takes in: each no larger than what is being written so far
        (size-tiered, so a row is re-encoded O(log n) times over n equal
        trickles), while the merged block's estimated bytes — the new
        rows priced at the table's bytes per row — stay within
        ``target_bytes``."""
        nbytes = rows * self.size_bytes // max(self.row_count, 1)
        taken = 0
        for block in reversed(self.blocks):
            if not block.delta or block.rows > rows:
                break
            nbytes += block.bytes
            if nbytes > target_bytes:
                break
            rows += block.rows
            taken += 1
        return self.blocks[len(self.blocks) - taken:]

    def extended(
        self, blocks: list[TableBlock], absorbed: int = 0
    ) -> "BlockListRDD":
        """The next version: the last ``absorbed`` blocks, whose rows
        ``blocks`` now hold, leave the workers' stores and ``blocks``
        follow the rest."""
        kept = self.blocks[: len(self.blocks) - absorbed]
        for block in self.blocks[len(kept):]:
            block.rdd.unpersist()
        return BlockListRDD(self.ctx, kept + blocks, self.name)

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        # A block is one record of its cached list, not its rows: the
        # scan over it counts the rows and the column bytes it reads.
        block = self.blocks[split]
        return block.rdd.iterator(block.split, task_ctx, counted=False)

    def preferred_workers(self, split: int) -> list[int]:
        block = self.blocks[split]
        return block.rdd.preferred_workers(block.split)

    def unpersist(self) -> "RDD":
        """Give every block back (DROP / UNCACHE)."""
        for rdd in {block.rdd.id: block.rdd for block in self.blocks}.values():
            rdd.unpersist()
        return self

    @property
    def is_cached(self) -> bool:
        return any(block.rdd.is_cached for block in self.blocks)


class CoalescedRDD(RDD):
    """Narrow many-to-one repartitioning (PDE's partition coalescing)."""

    def __init__(self, parent: RDD, num_partitions: int,
                 groups: Optional[list[list[int]]] = None):
        if groups is None:
            # Contiguous round-robin grouping.
            groups = [[] for _ in range(num_partitions)]
            for parent_split in range(parent.num_partitions):
                groups[parent_split % num_partitions].append(parent_split)
        if len(groups) != num_partitions:
            raise ValueError("groups must match num_partitions")
        super().__init__(
            parent.ctx,
            num_partitions,
            [ManyToOneDependency(parent, groups)],
            name="coalesce",
        )
        self._parent = parent
        self._groups = groups

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        merged: list = []
        for parent_split in self._groups[split]:
            merged.extend(self._parent.iterator(parent_split, task_ctx))
        return merged


class DriverRDD(RDD):
    """One partition the driver can compute: ``exchanged``'s one reduce
    partition read as it is.  A job that reads it through narrow
    operators alone computes it on the driver, with no task for it
    (:meth:`DAGScheduler.run_job`): the driver fetches the map outputs
    ``exchanged`` reads, in the order its reduce task would — a global
    aggregate's one bucket, or the buckets of a GROUP BY that PDE sized
    to one reducer.  Read inside a task instead (under an exchange, or by
    a cached write) it is the exchange's reduce partition, as before."""

    def __init__(self, exchanged: RDD):
        super().__init__(
            exchanged.ctx,
            1,
            [OneToOneDependency(exchanged)],
            name=exchanged.name,
        )
        self._exchanged = exchanged

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        return self._exchanged.iterator(split, task_ctx)


class PrunedRDD(RDD):
    """Exposes only a subset of a parent's partitions.

    This is how map pruning (Section 3.5) avoids launching tasks: the scan
    RDD is narrowed to the partitions whose statistics may satisfy the
    query's predicates, and the pruned partitions are simply never
    computed.
    """

    def __init__(self, parent: RDD, kept_partitions: list[int]):
        for partition in kept_partitions:
            if not 0 <= partition < parent.num_partitions:
                raise IndexError(
                    f"partition {partition} out of range for {parent!r}"
                )
        groups = [[partition] for partition in kept_partitions]
        super().__init__(
            parent.ctx,
            max(len(kept_partitions), 1),
            [ManyToOneDependency(parent, groups or [[]])],
            name="prune",
        )
        self._parent = parent
        self._kept = list(kept_partitions)

    @property
    def kept_partitions(self) -> list[int]:
        return list(self._kept)

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        if not self._kept:
            return []
        return self._parent.iterator(self._kept[split], task_ctx)

    def preferred_workers(self, split: int) -> list[int]:
        if not self._kept:
            return []
        return self._parent.preferred_workers(self._kept[split])


class ShuffledRDD(RDD):
    """The reduce side of a shuffle.

    Fetches its buckets from every map output (raising FetchFailedError
    on lost outputs, which the scheduler turns into lineage recovery) as
    one batch and hands on what the dependency reads out of it: the
    batch itself between SQL operators, ``(key, value)`` pairs — merged
    per key when an aggregator is attached — for the RDD API.  Partition
    ``i`` reads bucket ``i``, or with ``groups`` every bucket of
    ``groups[i]`` in one fetch (PDE's coalesced reduce partitions).
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator] = None,
        map_side_combine: bool = False,
        dep: Optional[ShuffleDependency] = None,
        groups: Optional[list[list[int]]] = None,
    ):
        if dep is None:
            dep = ShuffleDependency(
                parent,
                partitioner,
                aggregator=aggregator,
                map_side_combine=map_side_combine,
            )
        super().__init__(
            parent.ctx,
            partitioner.num_partitions if groups is None else len(groups),
            [dep],
            partitioner=partitioner if groups is None else None,
            name="shuffle",
        )
        self.shuffle_dep = dep
        self._groups = groups

    @classmethod
    def of(
        cls,
        dep: ShuffleDependency,
        groups: Optional[list[list[int]]] = None,
    ) -> "ShuffledRDD":
        return cls(dep.rdd, dep.partitioner, dep=dep, groups=groups)

    def coalesce_grouped(self, groups: list[list[int]]) -> RDD:
        """The same shuffle read a group of buckets at a time."""
        if self._groups is not None:
            return super().coalesce_grouped(groups)
        return ShuffledRDD.of(self.shuffle_dep, groups)

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        dep = self.shuffle_dep
        pairs = dep.records(
            task_ctx.shuffle_manager.fetch(
                dep.shuffle_id,
                split if self._groups is None else self._groups[split],
                task_ctx.metrics,
            )
        )
        aggregator = dep.aggregator
        if aggregator is None:
            return pairs
        merged: dict = {}
        if dep.map_side_combine:
            for key, combiner in pairs:
                if key in merged:
                    merged[key] = aggregator.merge_combiners(
                        merged[key], combiner
                    )
                else:
                    merged[key] = combiner
        else:
            for key, value in pairs:
                if key in merged:
                    merged[key] = aggregator.merge_value(merged[key], value)
                else:
                    merged[key] = aggregator.create_combiner(value)
        return list(merged.items())


class CoGroupedRDD(RDD):
    """Groups values from N pair RDDs by key.

    For each parent already partitioned compatibly the dependency is
    narrow; others are shuffled.  Output elements are
    ``(key, (values_from_rdd0, values_from_rdd1, ...))``.
    """

    def __init__(
        self,
        ctx: "EngineContext",
        rdds: list[RDD],
        partitioner: Partitioner,
    ):
        deps: list[Dependency] = []
        for rdd in rdds:
            if rdd.partitioner == partitioner:
                deps.append(OneToOneDependency(rdd))
            else:
                deps.append(ShuffleDependency(rdd, partitioner))
        super().__init__(
            ctx,
            partitioner.num_partitions,
            deps,
            partitioner=partitioner,
            name="cogroup",
        )
        self._rdds = [dep.rdd for dep in deps]

    @property
    def uses_only_narrow_deps(self) -> bool:
        """True when co-partitioning eliminated every shuffle (Section 3.4)."""
        return all(
            isinstance(dep, OneToOneDependency) for dep in self.dependencies
        )

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        groups: dict[Any, tuple] = {}
        arity = len(self._rdds)
        for index, dep in enumerate(self.dependencies):
            if isinstance(dep, OneToOneDependency):
                pairs = self._rdds[index].iterator(split, task_ctx)
            else:
                pairs = dep.pairs(
                    task_ctx.shuffle_manager.fetch(
                        dep.shuffle_id, split, task_ctx.metrics
                    )
                )
            for key, value in pairs:
                if key not in groups:
                    groups[key] = tuple([] for _ in range(arity))
                groups[key][index].append(value)
        return list(groups.items())
