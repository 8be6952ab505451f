"""Spillable execution consumers: the external sort.

The enforcement half of memory arbitration (DESIGN §12).  When
:meth:`repro.engine.memory.MemoryAccountant.reserve` crosses a worker's
cap and evicting unpinned storage blocks is not enough, it asks the
worker's registered consumers to spill.  Two consumers exist; both shed
what they hold as one encoded run (``repro.columnar.serde.BatchSerde``)
and read the runs back, in order, when they finish, so results are
repr-identical to the uncapped run no matter where (or whether) spills
fire — crucial because chaos retries shift spill points between runs:

``repro.sql.physical.BatchAggregator``
    Hash-aggregation state: the pending partial batches of a task,
    merged again after the runs are reloaded.

:class:`ExternalSorter`
    Buffers the ColumnBatches of one sort partition.  Each spill encodes
    the buffer as a run (arrival order); ``finish()`` concatenates the
    runs chronologically with the tail and sorts once, stably — the same
    order as a single stable sort of the full input — so ``RDD.sort_by``
    and ORDER BY partitions spill transparently.

"Disk" is simulated: spilled runs are serialized bytes held off-ledger
(their memory charge is released), with the write/read volume recorded
in :class:`~repro.engine.metrics.TaskMetrics` so
:mod:`repro.costmodel` charges real disk seconds for the round trip.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.columnar.batch import ColumnBatch
from repro.columnar.serde import BatchSerde
from repro.engine.task import current_task_context

#: Rows of the first batch a sorter weighs to price a row.
_BYTES_PER_ROW_SAMPLE = 64

_SERDE = BatchSerde()


def record_run_written(owner: str, nbytes: int) -> None:
    """One spilled run of ``nbytes`` hit simulated disk: charge the
    running task's cost vector and the accountant's per-owner totals."""
    task_ctx = current_task_context()
    if task_ctx is not None:
        task_ctx.metrics.spill_bytes_written += nbytes
        if task_ctx.accountant is not None:
            task_ctx.accountant.note_spill_write(owner, nbytes, runs=1)


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
        self._charged = 0
        self._finishing = False
        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.register_spillable(self)

    def extend(self, batch: ColumnBatch) -> None:
        """Take a batch: one ledger charge per arriving batch, made before
        the batch is kept in memory, so the charge points are the batches
        that arrive (a sort reads one fetched batch per reduce partition,
        or the batches of the one partition it sorts in place, the same
        on every retry).  A spill the charge forces sheds the
        buffer with the arriving batch in it."""
        rows = batch.num_rows
        if not rows:
            return
        if not self._bytes_per_row:
            # Heap bytes per row, from the first rows to arrive.
            head = batch.slice(0, min(rows, _BYTES_PER_ROW_SAMPLE))
            self._bytes_per_row = max(
                head.memory_footprint_bytes() // head.num_rows, 1
            )
        self._buffer.append(batch)
        self._rows += rows
        task_ctx = current_task_context()
        if task_ctx is None:
            return
        nbytes = rows * self._bytes_per_row
        task_ctx.reserve_memory(self.owner, nbytes)
        if self._buffer:
            self._charged += nbytes
        else:  # spilled while it was charged: its bytes are on disk
            task_ctx.release_memory(self.owner, nbytes)

    def spill(self, nbytes: int) -> tuple[int, int, int]:
        """Encode the buffer as one run and release its charge."""
        if self._finishing or not self._buffer:
            return (0, 0, 0)
        payload = _SERDE.encode(ColumnBatch.concat(self._buffer))
        self._runs.append(payload)
        self._buffer = []
        released = 0
        task_ctx = current_task_context()
        if task_ctx is not None:
            released = task_ctx.release_memory(self.owner, self._charged)
        record_run_written(self.owner, len(payload))
        self._charged = self._rows = 0
        return (released, len(payload), 1)

    def finish(self) -> ColumnBatch:
        """Every row ever added, sorted."""
        self._finishing = True
        pieces = list(map(_SERDE.decode, self._runs)) + self._buffer
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
