"""Spillable execution consumers: external hash aggregation and sort.

The enforcement half of memory arbitration (DESIGN §12).  When
:meth:`repro.engine.memory.MemoryAccountant.reserve` crosses a worker's
cap and evicting unpinned storage blocks is not enough, it asks the
worker's registered consumers to spill.  Two consumers live here:

:class:`SpillableGroups`
    Shared hash-aggregation state for the vectorized
    ``BatchAggregator`` and the row-mode partial aggregation.  Spilling
    is *bucket-grained* (Grace-style): every group key maps to one of
    :data:`NUM_SPILL_BUCKETS` fixed buckets via a deterministic CRC32
    of its repr; a spill serializes whole buckets of ``(key, accs)``
    items to an accumulator run and marks them spilled, after which
    rows for those buckets are appended *raw* — ``(key, arg values)``
    in arrival order — to raw runs.  ``finish()`` reloads the
    accumulator runs and replays the raw rows through ``fn.update`` in
    the same order the in-memory path would have applied them, then
    restores the global first-seen output order from per-key sequence
    numbers.  Results are therefore repr-identical to the uncapped run
    no matter where (or whether) spills fire — crucial because chaos
    retries shift spill points between runs.

:class:`ExternalSorter`
    Buffers the ColumnBatches of one sort partition.  Each spill encodes
    the buffer as a run (``repro.columnar.serde.BatchSerde``, arrival
    order); ``finish()`` concatenates the runs chronologically with the
    tail and sorts once, stably — the same order as a single stable sort
    of the full input — so ``RDD.sort_by`` and ORDER BY partitions spill
    transparently.

"Disk" is simulated: spilled runs are serialized bytes held off-ledger
(their memory charge is released), with the write/read volume recorded
in :class:`~repro.engine.metrics.TaskMetrics` so
:mod:`repro.costmodel` charges real disk seconds for the round trip.
Bucketing uses CRC32, never ``hash()`` (randomized per process), so
spill decisions are deterministic run to run.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.cluster.worker import approximate_size_bytes
from repro.columnar.batch import ColumnBatch
from repro.columnar.serde import BatchSerde, SpillSerde
from repro.engine.task import current_task_context

#: Fixed spill-bucket fanout for hash-aggregate state.  Small enough
#: that bucket bookkeeping is negligible, large enough that one spill
#: sheds ~1/8 of the live groups at a time.
NUM_SPILL_BUCKETS = 8

#: Raw rows buffered per spilled bucket before flushing a raw run.
RAW_FLUSH_ROWS = 256

#: Sorter items added between incremental ledger charges.
_SORT_CHARGE_EVERY = 64

_SERDE = SpillSerde()
_BATCH_SERDE = BatchSerde()


def spill_bucket(key: Any) -> int:
    """Deterministic bucket for a group key.

    ``repr`` + CRC32 instead of ``hash()``: Python string hashing is
    randomized per process, and spill decisions must be identical
    across the baseline and chaos runs for byte-identical event logs.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % NUM_SPILL_BUCKETS


def record_run_written(owner: str, nbytes: int) -> None:
    """One spilled run of ``nbytes`` hit simulated disk: charge the
    running task's cost vector and the accountant's per-owner totals."""
    task_ctx = current_task_context()
    if task_ctx is not None:
        task_ctx.metrics.spill_bytes_written += nbytes
        if task_ctx.accountant is not None:
            task_ctx.accountant.note_spill_write(owner, nbytes, runs=1)


class _SpilledBucket:
    """Runs belonging to one spilled bucket."""

    __slots__ = ("acc_payloads", "raw_payloads", "raw_buffer")

    def __init__(self) -> None:
        #: Serialized ``(key, accs)`` items cut at spill time (at most
        #: one per bucket: a spilled bucket holds no live groups, so it
        #: can never be picked again).
        self.acc_payloads: list[bytes] = []
        #: Serialized ``(key, values)`` rows that arrived after the
        #: bucket spilled, flushed in arrival-order chunks.
        self.raw_payloads: list[bytes] = []
        self.raw_buffer: list[tuple] = []


class SpillableGroups:
    """Hash-aggregation state that can shed buckets to simulated disk.

    ``functions`` are the aggregate function objects (``initial`` /
    ``update`` / per-slot accumulators); both the vectorized and the
    row-mode pipelines own one instance and register it with the
    accountant's arbitration path via the running task's context.
    """

    def __init__(self, functions: list, owner: str) -> None:
        self.functions = functions
        self.owner = owner
        #: key -> accumulator list, live (unspilled-bucket) groups only.
        self.groups: dict[tuple, list] = {}
        #: key -> first-seen sequence number, every key ever observed —
        #: the uncapped run's dict insertion order, restored at finish.
        self._order: dict[tuple, int] = {}
        self._spilled: dict[int, _SpilledBucket] = {}
        self._bytes_per_group = 0
        self._charged_groups = 0
        self._finishing = False
        self._registered = False
        self._register()

    # -- wiring ---------------------------------------------------------
    def _register(self) -> None:
        task_ctx = current_task_context()
        if task_ctx is not None and not self._registered:
            task_ctx.register_spillable(self)
            self._registered = True

    @staticmethod
    def _accountant():
        task_ctx = current_task_context()
        return task_ctx.accountant if task_ctx is not None else None

    @property
    def spilled(self) -> bool:
        return bool(self._spilled)

    def note_key(self, key: tuple) -> None:
        if key not in self._order:
            self._order[key] = len(self._order)

    # -- building state -------------------------------------------------
    def live_accs(self, key: tuple) -> Optional[list]:
        """Accumulators for ``key``, creating the group if new; None
        when the key's bucket is spilled (route those rows raw)."""
        accs = self.groups.get(key)
        if accs is not None:
            return accs
        if self._spilled and spill_bucket(key) in self._spilled:
            self.note_key(key)
            return None
        accs = [fn.initial() for fn in self.functions]
        self.groups[key] = accs
        self.note_key(key)
        return accs

    def update_row(self, key: tuple, values: list) -> None:
        """One row, row-mode: update live accumulators or append raw."""
        accs = self.live_accs(key)
        if accs is None:
            self.append_raw(key, values)
            return
        for j, fn in enumerate(self.functions):
            accs[j] = fn.update(accs[j], values[j])
        self.charge_pending()

    def append_raw(self, key: tuple, values: list) -> None:
        """Queue one row for a spilled bucket, flushing full chunks."""
        state = self._spilled[spill_bucket(key)]
        state.raw_buffer.append((key, list(values)))
        if len(state.raw_buffer) >= RAW_FLUSH_ROWS:
            self._flush_raw(state)

    def _flush_raw(self, state: _SpilledBucket) -> None:
        if not state.raw_buffer:
            return
        payload = _SERDE.encode(state.raw_buffer)
        state.raw_payloads.append(payload)
        state.raw_buffer = []
        self._record_write(len(payload))

    def _record_write(self, nbytes: int) -> None:
        record_run_written(self.owner, nbytes)

    def charge_pending(self) -> None:
        """Charge uncharged group growth to the task's execution pool."""
        new = len(self.groups) - self._charged_groups
        if new <= 0:
            return
        task_ctx = current_task_context()
        if task_ctx is None:
            return
        if not self._bytes_per_group:
            self._bytes_per_group = max(
                approximate_size_bytes(next(iter(self.groups.items()))), 1
            )
        task_ctx.reserve_memory(self.owner, new * self._bytes_per_group)
        self._charged_groups = len(self.groups)

    # -- the consumer contract ------------------------------------------
    def spillable_bytes(self) -> int:
        return self._charged_groups * self._bytes_per_group

    def spill(self, nbytes: int) -> tuple[int, int, int]:
        """Shed whole buckets until ``nbytes`` of ledger charge is
        released (or no live groups remain); returns
        ``(released, written, runs)``."""
        if self._finishing or not self.groups:
            return (0, 0, 0)
        task_ctx = current_task_context()
        if not self._bytes_per_group:
            self._bytes_per_group = max(
                approximate_size_bytes(next(iter(self.groups.items()))), 1
            )
        released = written = runs = 0
        while self.groups and released < nbytes:
            counts: dict[int, int] = {}
            for key in self.groups:
                bucket = spill_bucket(key)
                counts[bucket] = counts.get(bucket, 0) + 1
            # Largest bucket first (ties: lowest id) — fewest spills to
            # cover the shortfall, deterministically.
            bucket = min(counts, key=lambda b: (-counts[b], b))
            items = [
                (key, accs)
                for key, accs in self.groups.items()
                if spill_bucket(key) == bucket
            ]
            payload = _SERDE.encode(items)
            self._spilled.setdefault(
                bucket, _SpilledBucket()
            ).acc_payloads.append(payload)
            for key, __ in items:
                del self.groups[key]
            freed_groups = min(len(items), self._charged_groups)
            self._charged_groups -= freed_groups
            if task_ctx is not None:
                released += task_ctx.release_memory(
                    self.owner, freed_groups * self._bytes_per_group
                )
            self._record_write(len(payload))
            written += len(payload)
            runs += 1
        return (released, written, runs)

    # -- merge ----------------------------------------------------------
    def finish_groups(self) -> list:
        """All ``(key, accs)`` pairs in the uncapped run's exact order,
        merging spilled accumulator runs and replaying raw rows."""
        self._finishing = True
        if not self._spilled:
            return list(self.groups.items())
        merged = dict(self.groups)
        live_before = len(self.groups)
        read_bytes = 0
        for bucket in sorted(self._spilled):
            state = self._spilled[bucket]
            for payload in state.acc_payloads:
                read_bytes += len(payload)
                for key, accs in _SERDE.decode(payload):
                    merged[key] = accs
            self._flush_raw(state)
            for payload in state.raw_payloads:
                read_bytes += len(payload)
                for key, values in _SERDE.decode(payload):
                    accs = merged.get(key)
                    if accs is None:
                        accs = [fn.initial() for fn in self.functions]
                        merged[key] = accs
                    # Arrival-order fn.update replay: the exact update
                    # sequence the in-memory path would have applied.
                    for j, fn in enumerate(self.functions):
                        accs[j] = fn.update(accs[j], values[j])
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.metrics.spill_bytes_read += read_bytes
            reloaded = len(merged) - live_before
            if reloaded > 0 and self._bytes_per_group:
                # The merged state lives on the task's heap again until
                # the attempt ends: put it back on the ledger.
                task_ctx.reserve_memory(
                    self.owner, reloaded * self._bytes_per_group
                )
        self._spilled.clear()
        order = self._order
        return sorted(merged.items(), key=lambda item: order[item[0]])


class ExternalSorter:
    """Buffered sort of ColumnBatch rows that sheds runs under memory
    pressure.

    ``order(batch)`` returns the stable sorting permutation of a batch's
    rows.  A spill encodes what is buffered as one run, in arrival order;
    ``finish()`` puts the runs (chronological order) and the tail end to
    end and orders that once — a stable sort of everything ever added,
    so output is byte-identical with or without spills.
    """

    def __init__(
        self,
        order: Callable[[ColumnBatch], Sequence[int]],
        owner: str = "sort",
    ) -> None:
        self._order = order
        self.owner = owner
        self._buffer: list[ColumnBatch] = []
        self._rows = 0
        self._runs: list[bytes] = []
        self._bytes_per_row = 0
        self._charged_rows = 0
        self._finishing = False
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.register_spillable(self)

    def extend(self, batch: ColumnBatch) -> None:
        """Buffer a batch.  The ledger is charged — and a spill can
        therefore fire — each time :data:`_SORT_CHARGE_EVERY` rows are
        pending, so the charge points depend only on how many rows
        arrived, not on where the batch boundaries fell."""
        if not self._bytes_per_row and batch.num_rows:
            # Heap bytes per row, from the first rows to arrive.
            head = batch.slice(0, min(batch.num_rows, _SORT_CHARGE_EVERY))
            self._bytes_per_row = max(
                head.memory_footprint_bytes() // head.num_rows, 1
            )
        start = 0
        while start < batch.num_rows:
            pending = self._rows - self._charged_rows
            stop = min(
                start + _SORT_CHARGE_EVERY - pending % _SORT_CHARGE_EVERY,
                batch.num_rows,
            )
            self._buffer.append(batch.slice(start, stop))
            self._rows += stop - start
            start = stop
            if self._rows - self._charged_rows >= _SORT_CHARGE_EVERY:
                self._charge_pending()

    def _charge_pending(self) -> None:
        task_ctx = current_task_context()
        if task_ctx is None:
            return
        task_ctx.reserve_memory(
            self.owner,
            (self._rows - self._charged_rows) * self._bytes_per_row,
        )
        self._charged_rows = self._rows

    def spillable_bytes(self) -> int:
        return self._charged_rows * self._bytes_per_row

    def spill(self, nbytes: int) -> tuple[int, int, int]:
        """Encode the buffer as one run and release its charge."""
        if self._finishing or not self._buffer:
            return (0, 0, 0)
        payload = _BATCH_SERDE.encode(ColumnBatch.concat(self._buffer))
        self._runs.append(payload)
        self._buffer = []
        released = 0
        task_ctx = current_task_context()
        if task_ctx is not None:
            released = task_ctx.release_memory(
                self.owner, self._charged_rows * self._bytes_per_row
            )
        record_run_written(self.owner, len(payload))
        self._charged_rows = self._rows = 0
        return (released, len(payload), 1)

    def finish(self) -> ColumnBatch:
        """Every row ever added, sorted."""
        self._finishing = True
        pieces = list(map(_BATCH_SERDE.decode, self._runs)) + self._buffer
        merged = ColumnBatch.concat(pieces)
        if self._runs:
            task_ctx = current_task_context()
            if task_ctx is not None:
                task_ctx.metrics.spill_bytes_read += sum(
                    map(len, self._runs)
                )
                # The reloaded runs live on the task's heap again until
                # the attempt ends: put them back on the ledger.
                task_ctx.reserve_memory(
                    self.owner,
                    (merged.num_rows - self._rows) * self._bytes_per_row,
                )
        if not merged.num_rows:
            return merged
        return merged.take(np.asarray(self._order(merged), dtype=np.int64))
