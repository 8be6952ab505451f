"""Shuffle: map-output bucketing, fetching, and PDE statistics.

A map task's output is one keyed :class:`~repro.columnar.batch.ColumnBatch`.
The shuffle orders it by reduce partition (a sort exchange: by its sort
key, one run cut at the range bounds) and stores it, with the offsets
of the buckets, in the task's worker's block store (the paper's
memory-based shuffle, Section 5).  Reduce tasks fetch their buckets —
slices of those batches — from every map output; if a map output's worker
has died, the fetch raises :class:`~repro.errors.FetchFailedError` and the
scheduler re-runs only the lost map tasks (lineage recovery within the
query).

A bucket weighs what it would encode to
(:meth:`repro.columnar.serde.BatchSerde.encoded_size`): that one number
is the byte count of every shuffle metric and what a fetch charges.
Beside its block, each map task reports one :class:`MapStatus` to the
master — its buckets' rows and sizes and, for a sort still without
bounds, its sample — and every PDE decision reads those statuses
(Section 3.1): a size through its one-byte code, as the master would
receive it.  Heavy keys are not gathered on the map side; the skew
audit labels them from the stored blocks when it is asked.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.columnar.batch import ColumnBatch
from repro.columnar.serde import BatchSerde
from repro.engine.partitioner import RangePartitioner
from repro.engine.task import current_task_context
from repro.errors import FetchFailedError
from repro.obs import Tracer

_SERDE = BatchSerde()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import VirtualCluster
    from repro.engine.dependencies import ShuffleDependency
    from repro.engine.metrics import TaskMetrics
    from repro.engine.query import QueryScope


def _shuffle_block_id(shuffle_id: int, map_partition: int) -> str:
    return f"shuffle_{shuffle_id}_{map_partition}"


class ShuffleBlock:
    """One map task's stored output: its batch in bucket order, where
    each bucket starts, and what each weighs.  A bucket is a slice."""

    __slots__ = ("batch", "offsets", "sizes")

    def __init__(self, batch: ColumnBatch, offsets: list, sizes: list):
        self.batch = batch
        self.offsets = offsets
        self.sizes = sizes

    def span(self, reduce_partition: int) -> tuple[ColumnBatch, int, int]:
        """Where bucket ``reduce_partition`` lies in the batch."""
        return (
            self.batch,
            self.offsets[reduce_partition],
            self.offsets[reduce_partition + 1],
        )


#: Heavy keys each map output contributes to its skew record (a little
#: wider than the merged top-N so near-ties survive the merge).
_HEAVY_KEYS_PER_MAP = 8

#: Heavy reduce keys reported per shuffle after merging map outputs.
HEAVY_KEYS_TOP_N = 5


def _key_label(key: Any) -> str:
    """Deterministic string label for a reduce key.

    Plain values (and tuples of them) repr stably; anything else would
    repr with a memory address, so it collapses to a type placeholder
    instead (event logs must stay byte-identical across reruns)."""
    if key is None or isinstance(key, (bool, int, float, str)):
        return repr(key)
    if isinstance(key, tuple):
        return "(" + ", ".join(_key_label(item) for item in key) + ")"
    return f"<{type(key).__name__}>"


#: The one label of every key of a sort (range-partitioned) exchange:
#: its keys are an order-preserving encoding of the ORDER BY values
#: (NULL flags, negated numerics), not values a reader would recognise.
SORT_KEY_LABEL = "<SortKey>"


#: Logarithmic base chosen so a single byte (0..255) spans up to ~32 GB with
#: at most ~10% relative error, as described in the paper (Section 3.1).
_LOG_BASE = 1.1
_LOG_DENOM = math.log(_LOG_BASE)


def log_encode_size(num_bytes: int) -> int:
    """Encode a byte count into one byte with bounded relative error."""
    if num_bytes <= 0:
        return 0
    code = int(round(math.log(num_bytes) / _LOG_DENOM)) + 1
    return max(1, min(code, 255))


def log_decode_size(code: int) -> int:
    """Decode a one-byte size code back to an approximate byte count."""
    if code <= 0:
        return 0
    return int(round(_LOG_BASE ** (code - 1)))


def _as_reported(size: int) -> int:
    """A bucket's size as the master receives it: through its code."""
    return log_decode_size(log_encode_size(size))


@dataclass
class MapStatus:
    """What one map task reports to the master: the rows and the exact
    encoded size of each of its buckets and, for a sort whose bounds
    are not picked yet, the sample they are picked from."""

    rows: list[int]
    sizes: list[int]
    sample: Optional[list] = None


@dataclass
class MapOutputStats:
    """Master-side view of a shuffle's map outputs: one
    :class:`MapStatus` per map partition that has reported.

    A re-run map task — retry, speculation, lineage recovery — overwrites
    its own status, so every statistic counts each map output once.
    """

    num_maps: int
    num_reduces: int
    statuses: dict[int, MapStatus] = field(default_factory=dict)

    @property
    def sample(self) -> list:
        """Every map task's sample, end to end in map-partition order."""
        return [
            key
            for map_partition in sorted(self.statuses)
            for key in self.statuses[map_partition].sample or ()
        ]

    def skew_record(
        self, shuffle_id: int, map_labels: Callable[[int], Iterable[str]]
    ) -> dict:
        """Merged per-partition row/byte histogram plus heavy keys.

        ``map_labels(map_partition)`` yields the label of every key of
        that map output, in any order; labelling and counting happen
        here, on demand, so a query nobody profiles pays nothing per
        record.  Each map contributes its ``_HEAVY_KEYS_PER_MAP``
        heaviest labels (ties: label order).  Statuses merge in
        map-partition order; sums and the sorted top-N are
        order-independent, so the record is deterministic across task
        scheduling and re-execution.
        """
        rows = [0] * self.num_reduces
        bucket_bytes = [0] * self.num_reduces
        key_counts: dict[str, int] = {}
        for map_partition in sorted(self.statuses):
            status = self.statuses[map_partition]
            for index, count in enumerate(status.rows):
                rows[index] += count
            for index, size in enumerate(status.sizes):
                bucket_bytes[index] += size
            heaviest = sorted(
                Counter(map_labels(map_partition)).items(),
                key=lambda item: (-item[1], item[0]),
            )[:_HEAVY_KEYS_PER_MAP]
            for label, count in heaviest:
                key_counts[label] = key_counts.get(label, 0) + count
        heavy = sorted(
            key_counts.items(), key=lambda item: (-item[1], item[0])
        )[:HEAVY_KEYS_TOP_N]
        total_rows = sum(rows)
        total_bytes = sum(bucket_bytes)
        mean_rows = total_rows / self.num_reduces if self.num_reduces else 0.0
        mean_bytes = (
            total_bytes / self.num_reduces if self.num_reduces else 0.0
        )
        return {
            "shuffle_id": shuffle_id,
            "num_maps": self.num_maps,
            "num_reduces": self.num_reduces,
            "rows": rows,
            "bytes": bucket_bytes,
            "total_rows": total_rows,
            "total_bytes": total_bytes,
            "row_skew": (max(rows) / mean_rows) if mean_rows else 0.0,
            "byte_skew": (
                (max(bucket_bytes) / mean_bytes) if mean_bytes else 0.0
            ),
            # The reduce partition expected to straggle: the one with
            # the most rows to process (task-time-vs-rows attribution —
            # simulated task time is row-proportional, so the heaviest
            # partition is the straggler candidate).
            "straggler_partition": (
                rows.index(max(rows)) if total_rows else 0
            ),
            "heavy_keys": [[key, count] for key, count in heavy],
        }

    @property
    def maps_reported(self) -> int:
        return len(self.statuses)

    def map_output_bytes(self, map_partition: int) -> int:
        return sum(map(_as_reported, self.statuses[map_partition].sizes))

    def total_output_bytes(self) -> int:
        return sum(map(self.map_output_bytes, self.statuses))

    def reduce_input_bytes(self, reduce_partition: int) -> int:
        """Approximate bytes reduce task ``reduce_partition`` will fetch."""
        return sum(
            _as_reported(status.sizes[reduce_partition])
            for status in self.statuses.values()
        )

    def reduce_input_sizes(self) -> list[int]:
        return [self.reduce_input_bytes(i) for i in range(self.num_reduces)]

    def total_records(self) -> int:
        return sum(sum(status.rows) for status in self.statuses.values())


class ShuffleManager:
    """Tracks every shuffle's map outputs, their locations, and statistics."""

    def __init__(
        self,
        cluster: "VirtualCluster",
        tracer: Tracer = None,
        fault_injector=None,
    ):
        self._cluster = cluster
        self._tracer = tracer if tracer is not None else cluster.tracer
        self._fault_injector = fault_injector
        #: shuffle_id -> {map_partition: worker_id}
        self._locations: dict[int, dict[int, int]] = {}
        self._stats: dict[int, MapOutputStats] = {}
        self._deps: dict[int, "ShuffleDependency"] = {}
        #: shuffle_id -> {map_partition: [(worker_id, metrics), ...]}: the
        #: writes of an unresolved sort, accounted when its runs are cut.
        self._uncut: dict[int, dict[int, list]] = {}
        cluster.on_worker_killed(self._handle_worker_killed)

    # ------------------------------------------------------------------
    # Registration and map-side writes
    # ------------------------------------------------------------------
    def register(self, dep: "ShuffleDependency", num_maps: int) -> bool:
        """Start tracking ``dep``'s map outputs; False when it already
        was (a stage reused across jobs registers once)."""
        shuffle_id = dep.shuffle_id
        if shuffle_id in self._locations:
            return False
        self._locations[shuffle_id] = {}
        self._stats[shuffle_id] = MapOutputStats(
            num_maps, dep.partitioner.num_partitions
        )
        self._deps[shuffle_id] = dep
        return True

    def is_registered(self, shuffle_id: int) -> bool:
        return shuffle_id in self._locations

    def write_map_output(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        worker_id: int,
        batch: ColumnBatch,
        metrics: "TaskMetrics" = None,
    ) -> None:
        """Store one map task's keyed batch (``dep.keyed_batch`` of its
        records) on the task's worker as ``dep.map_output`` makes it,
        bucketed by ``dep.key``, and report its status.  The output of a
        sort that has no bounds yet is stored as one bucket, its status
        carries its sample, and its write is accounted when
        :meth:`cut_runs` cuts it.
        """
        batch = ColumnBatch(batch.vectors(), batch.num_rows)  # decoded, unpinned
        batch, sample = dep.map_output(batch, map_partition)
        written = self._store(
            dep, map_partition, worker_id, *dep.bucketed(batch)
        )
        self._stats[dep.shuffle_id].statuses[map_partition].sample = sample
        self._locations[dep.shuffle_id][map_partition] = worker_id
        if dep.resolved:
            self._account_write(
                dep, map_partition, worker_id, metrics, *written
            )
        else:
            self._uncut.setdefault(dep.shuffle_id, {}).setdefault(
                map_partition, []
            ).append((worker_id, metrics))

    def cut_runs(self, dep: "ShuffleDependency") -> None:
        """A sort exchange just resolved: cut each stored run at its
        partitioner's bounds, and account every write that waited for
        that — to the attempt that made it, as if cut when written (a
        run is a function of its map partition).  Each cut run reports
        its status again; a lost one reports when lineage writes it."""
        stats = self._stats[dep.shuffle_id]
        stats.num_reduces = dep.partitioner.num_partitions
        stats.statuses = {}
        waiting = self._uncut.pop(dep.shuffle_id, {})
        for map_partition in range(stats.num_maps):
            block = self._stored_block(dep.shuffle_id, map_partition)
            if block is None:  # lost: cut when lineage writes it again
                continue
            written = self._store(
                dep,
                map_partition,
                self._locations[dep.shuffle_id][map_partition],
                *dep.bucketed(block.batch),
            )
            for worker_id, metrics in waiting.get(map_partition, ()):
                self._account_write(
                    dep, map_partition, worker_id, metrics, *written
                )

    def stored_runs(self, shuffle_id: int) -> list[ColumnBatch]:
        """The batch every map output holds, in map-partition order."""
        return [
            self._stored_block(shuffle_id, map_partition).batch
            for map_partition in range(self._stats[shuffle_id].num_maps)
        ]

    def _stored_block(
        self, shuffle_id: int, map_partition: int
    ) -> "ShuffleBlock | None":
        """One map output's block where its location says, if there."""
        worker_id = self._locations[shuffle_id].get(map_partition)
        if worker_id is None:
            return None
        worker = self._cluster.worker(worker_id)
        block_id = _shuffle_block_id(shuffle_id, map_partition)
        if not worker.alive or block_id not in worker.blocks:
            return None
        return worker.blocks.get(block_id)

    def _store(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        worker_id: int,
        batch: ColumnBatch,
        offsets: list[int],
    ) -> tuple[int, int, int, int]:
        """Weigh a bucketed map output, store it on ``worker_id`` and
        report its status; returns its (rows, columns, bytes, pickled
        bytes)."""
        sizes, pickled_bytes = _SERDE.measure(
            batch, None if len(offsets) == 2 else np.array(offsets)
        )
        total_bytes = sum(sizes)
        worker = self._cluster.worker(worker_id)
        # Pinned: shuffle output only vanishes with the worker (the spill
        # story of Section 5), never to silent cache eviction.
        worker.blocks.put(
            _shuffle_block_id(dep.shuffle_id, map_partition),
            ShuffleBlock(batch, offsets, sizes),
            size_bytes=total_bytes,
            pinned=True,
        )
        self._stats[dep.shuffle_id].statuses[map_partition] = MapStatus(
            [b - a for a, b in zip(offsets, offsets[1:])], sizes
        )
        return batch.num_rows, len(batch.entries), total_bytes, pickled_bytes

    def _account_write(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        worker_id: int,
        metrics: "TaskMetrics",
        rows: int,
        columns: int,
        total_bytes: int,
        pickled_bytes: int,
    ) -> None:
        """Charge one map output's write to the attempt that made it."""
        task_ctx = current_task_context()
        if task_ctx is not None:
            # Transient bucketing buffer: charged to the map task's
            # execution pool for the rest of the attempt (the pinned
            # block already rides the storage pool).
            task_ctx.reserve_memory("shuffle_write", total_bytes)
        if metrics is not None:
            metrics.shuffle_write_bytes += total_bytes
            metrics.shuffle_write_records += rows
            metrics.shuffle_write_pickled_bytes += pickled_bytes
        counters = self._tracer.metrics
        counters.inc("shuffle.write.bytes", total_bytes)
        counters.inc("shuffle.write.records", rows)
        counters.inc("exchange.batches")
        counters.inc("exchange.rows", rows)
        counters.inc("exchange.encoded_bytes", total_bytes)
        counters.inc("exchange.pickled_bytes", pickled_bytes)
        self._tracer.instant(
            "shuffle.write",
            "shuffle",
            lane=worker_id,
            shuffle_id=dep.shuffle_id,
            map_partition=map_partition,
            bytes=total_bytes,
            records=rows,
            columns=columns,
            pickled_bytes=pickled_bytes,
        )

    # ------------------------------------------------------------------
    # Reduce-side fetches
    # ------------------------------------------------------------------
    def fetch(
        self,
        shuffle_id: int,
        reduce_partitions: "int | Sequence[int]",
        metrics: "TaskMetrics" = None,
    ) -> ColumnBatch:
        """The rows of ``reduce_partitions`` (one bucket, or the buckets a
        coalesced reduce partition reads), bucket by bucket and within
        one in map order, as one batch.

        Raises :class:`FetchFailedError` naming the first lost map
        partition when any map output is unavailable.
        """
        if isinstance(reduce_partitions, int):
            reduce_partitions = (reduce_partitions,)
        first = reduce_partitions[0] if reduce_partitions else 0
        locations = self._locations[shuffle_id]
        stats = self._stats[shuffle_id]
        reader_lane = metrics.worker_id if metrics is not None else "driver"
        injector = self._fault_injector
        if injector is not None and injector.corrupt_fetch(shuffle_id, first):
            # A corrupted map output is indistinguishable from a lost one:
            # drop the block so lineage recovery recomputes it.  Only a
            # map output that is actually still present can be the victim
            # — picking a partition whose block already vanished (or
            # fabricating partition 0 when none are registered) would
            # report a loss lineage recovery cannot act on.
            victim = owner = None
            for candidate in sorted(locations):
                holder = self._cluster.worker(locations[candidate])
                block_id = _shuffle_block_id(shuffle_id, candidate)
                if holder.alive and block_id in holder.blocks:
                    victim, owner = candidate, locations.pop(candidate)
                    holder.blocks.remove(block_id)
                    break
            if victim is None:
                # Nothing left to corrupt: report the first map output
                # that is genuinely missing instead of inventing one.
                missing = self.missing_maps(shuffle_id)
                victim = missing[0] if missing else 0
                owner = locations.get(victim)
            self._tracer.metrics.inc("shuffle.corrupt_fetches")
            self._record_fetch_failure(
                shuffle_id, victim, owner if owner is not None else -1,
                reader_lane,
            )
            raise FetchFailedError(
                shuffle_id, victim, owner if owner is not None else -1
            )
        blocks: list[ShuffleBlock] = []
        for map_partition in range(stats.num_maps):
            worker_id = locations.get(map_partition)
            if worker_id is None:
                self._record_fetch_failure(
                    shuffle_id, map_partition, -1, reader_lane
                )
                raise FetchFailedError(shuffle_id, map_partition, -1)
            worker = self._cluster.worker(worker_id)
            block_id = _shuffle_block_id(shuffle_id, map_partition)
            if not worker.alive or block_id not in worker.blocks:
                self._record_fetch_failure(
                    shuffle_id, map_partition, worker_id, reader_lane
                )
                raise FetchFailedError(shuffle_id, map_partition, worker_id)
            blocks.append(worker.blocks.get(block_id))
        fetched = ColumnBatch.concat_slices(
            [
                block.span(bucket)
                for bucket in reduce_partitions
                for block in blocks
                if block.sizes[bucket]
            ]
            or [(blocks[0].batch, 0, 0)]
        )
        if metrics is not None:
            # What was fetched is what was written: the buckets' sizes.
            read_bytes = sum(
                block.sizes[bucket]
                for bucket in reduce_partitions
                for block in blocks
            )
            task_ctx = current_task_context()
            if task_ctx is not None:
                # The fetched rows live in the reduce task until its
                # attempt ends; charge its worker's execution pool.
                task_ctx.reserve_memory("shuffle_fetch", read_bytes)
            metrics.shuffle_read_bytes += read_bytes
            self._tracer.metrics.inc("shuffle.read.bytes", read_bytes)
            self._tracer.instant(
                "shuffle.fetch",
                "shuffle",
                lane=reader_lane,
                shuffle_id=shuffle_id,
                reduce_partition=first,
                buckets=len(reduce_partitions),
                bytes=read_bytes,
                records=fetched.num_rows,
            )
        self._tracer.metrics.inc("shuffle.fetches")
        return fetched

    def _record_fetch_failure(
        self, shuffle_id: int, map_partition: int, worker_id: int, lane
    ) -> None:
        """One lost-map-output fetch: the trigger for lineage recovery."""
        self._tracer.metrics.inc("shuffle.fetch_failures")
        self._tracer.instant(
            "shuffle.fetch_failed",
            "shuffle",
            lane=lane,
            shuffle_id=shuffle_id,
            map_partition=map_partition,
            lost_worker=worker_id,
        )

    def missing_maps(self, shuffle_id: int) -> list[int]:
        """Map partitions whose output is registered but no longer available."""
        locations = self._locations[shuffle_id]
        stats = self._stats[shuffle_id]
        missing = []
        for map_partition in range(stats.num_maps):
            worker_id = locations.get(map_partition)
            if worker_id is None:
                missing.append(map_partition)
                continue
            worker = self._cluster.worker(worker_id)
            block_id = _shuffle_block_id(shuffle_id, map_partition)
            if not worker.alive or block_id not in worker.blocks:
                missing.append(map_partition)
        return missing

    def stats(self, shuffle_id: int) -> MapOutputStats:
        return self._stats[shuffle_id]

    def skew_records(self, scope: "QueryScope") -> list[dict]:
        """Skew records of the shuffles ``scope`` owns, sorted by
        shuffle id.  Shuffles with no map output yet are skipped.

        Reported ids are rebased to the first id the scope could own
        (the query's first shuffle is 0): the global counter keeps
        growing across queries in one process, and logs must be
        byte-identical across reruns.
        """
        out = []
        for shuffle_id in sorted(scope.shuffle_ids):
            stats = self._stats.get(shuffle_id)
            if stats is None or not stats.statuses:
                continue
            out.append(
                stats.skew_record(
                    shuffle_id - scope.first_shuffle_id,
                    functools.partial(self._map_output_labels, shuffle_id),
                )
            )
        return out

    def _map_output_labels(
        self, shuffle_id: int, map_partition: int
    ) -> Iterable[str]:
        """The label of every key of one map output, read back from its
        pinned block.  A block lost with its worker and not recomputed
        has nothing left to label."""
        block = self._stored_block(shuffle_id, map_partition)
        if block is None:
            return ()
        batch = block.batch
        dep = self._deps[shuffle_id]
        if isinstance(dep.partitioner, RangePartitioner):
            return repeat(SORT_KEY_LABEL, batch.num_rows)
        return map(_key_label, batch.values(dep.key))

    def repoint_map_output(
        self, shuffle_id: int, map_partition: int, worker_id: int
    ) -> None:
        """Make ``worker_id`` the authoritative holder of a map output.

        Used when a speculative copy finishes first: both the original and
        the copy wrote identical buckets and reported identical statuses,
        so reduces may fetch from the winner.
        """
        self._locations[shuffle_id][map_partition] = worker_id

    # ------------------------------------------------------------------
    # Release (query cancellation / cleanup)
    # ------------------------------------------------------------------
    def release_shuffle(self, shuffle_id: int) -> int:
        """Drop one shuffle's registration and its pinned map-output
        blocks; returns the number of blocks removed.

        A query's scope calls this when it closes: its map outputs can
        never be fetched again, and because they are pinned they would
        otherwise occupy worker memory forever (the "no orphaned pinned
        blocks" invariant).  Every live worker is asked, not only the
        recorded location: a speculative copy or a lineage re-run wrote
        the same block on a second worker, and the pointer names one.
        """
        if self._locations.pop(shuffle_id, None) is None:
            return 0
        stats = self._stats.pop(shuffle_id)
        self._deps.pop(shuffle_id, None)
        self._uncut.pop(shuffle_id, None)
        released = 0
        block_ids = [
            _shuffle_block_id(shuffle_id, map_partition)
            for map_partition in range(stats.num_maps)
        ]
        for worker in self._cluster.live_workers():
            for block_id in block_ids:
                if block_id in worker.blocks:
                    worker.blocks.remove(block_id)
                    released += 1
        self._tracer.metrics.inc("shuffle.released")
        self._tracer.metrics.inc("shuffle.released.blocks", released)
        return released

    def registered_block_ids(self) -> set[str]:
        """Block ids of every registered map output (test/debug helper:
        cross-check against the workers' pinned blocks to prove no
        cancelled query leaked shuffle storage)."""
        return {
            _shuffle_block_id(shuffle_id, map_partition)
            for shuffle_id, locations in self._locations.items()
            for map_partition in locations
        }

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _handle_worker_killed(self, worker_id: int) -> None:
        """Forget locations pointing at a dead worker.

        The blocks themselves were dropped by the worker's ``kill``; the
        next fetch raises FetchFailedError and the scheduler recomputes.
        """
        for locations in self._locations.values():
            lost = [
                map_partition
                for map_partition, owner in locations.items()
                if owner == worker_id
            ]
            for map_partition in lost:
                del locations[map_partition]
