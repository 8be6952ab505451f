"""Memory arbitration and the spillable execution consumers.

Covers the enforcement path PR'd on top of the observe-only accountant:

* ``MemoryAccountant.reserve`` over a cap arbitrates — unpinned storage
  blocks are evicted LRU-first, then registered execution consumers are
  asked to spill — and the reservation always proceeds;
* :class:`~repro.engine.spill.ExternalSorter` spilled runs + tail
  re-sorted equal one stable sort;
* spill traffic is attributed (``memory.spill.*`` counters, per-owner
  rows) and ``BlockStore.evict_up_to`` never touches pinned blocks;
* the corrupted-fetch regression: the shuffle manager reports a map
  partition that actually exists (satellite bugfix).
"""

from types import SimpleNamespace

import pytest

from repro.cluster.worker import BlockStore
from repro.columnar.batch import ColumnBatch
from repro.engine.dependencies import ShuffleDependency
from repro.engine.memory import (
    EXECUTION,
    STORAGE,
    MemoryAccountant,
)
from repro.engine.partitioner import HashPartitioner
from repro.engine.spill import ExternalSorter
from repro.errors import FetchFailedError
from repro.faults.injector import FaultInjector


class _Tally:
    """Minimal consumer: releases what it is asked, records the call."""

    def __init__(self, accountant, worker_id, owner="tally", held=0):
        self.accountant = accountant
        self.worker_id = worker_id
        self.owner = owner
        self.held = held
        self.asked: list[int] = []

    def spill(self, nbytes):
        self.asked.append(nbytes)
        released = min(nbytes, self.held)
        if released:
            self.accountant.release(
                self.worker_id, EXECUTION, self.owner, released
            )
            self.held -= released
        return (released, released, 1 if released else 0)


class TestArbitration:
    def test_eviction_runs_before_consumer_spill(self):
        accountant = MemoryAccountant(capacity_bytes=1_000)
        store = BlockStore(accountant=accountant, worker_id=0)
        store.put("rdd_1_0", "x", size_bytes=600)
        consumer = _Tally(accountant, 0, held=0)
        accountant.register_spill_consumer(0, consumer)
        # 500B over a 1000B cap with 600B evictable storage: eviction
        # alone covers the shortfall, the consumer is never asked.
        accountant.reserve(0, EXECUTION, "op", 900)
        assert "rdd_1_0" not in store
        assert consumer.asked == []
        assert accountant.live_bytes(STORAGE) == 0
        assert accountant.live_bytes(EXECUTION) == 900

    def test_consumer_spills_when_eviction_insufficient(self):
        accountant = MemoryAccountant(capacity_bytes=1_000)
        store = BlockStore(accountant=accountant, worker_id=0)
        store.put("shuffle_0_0", "x", size_bytes=400, pinned=True)
        accountant.reserve(0, EXECUTION, "state", 500)
        consumer = _Tally(accountant, 0, owner="state", held=500)
        accountant.register_spill_consumer(0, consumer)
        accountant.reserve(0, EXECUTION, "op", 400)
        # Pinned block survives; the consumer covered the shortfall.
        assert "shuffle_0_0" in store
        assert consumer.asked and consumer.asked[0] == 300
        assert accountant.spill_events == 1
        assert accountant.spilled_by_owner["state"]["events"] == 1

    def test_reservation_proceeds_even_when_uncoverable(self):
        accountant = MemoryAccountant(capacity_bytes=100)
        charged = accountant.reserve(0, EXECUTION, "op", 10_000)
        assert charged == 10_000
        assert accountant.live_bytes(EXECUTION) == 10_000
        assert accountant.pressure_events == 1

    def test_deregistered_consumer_not_asked(self):
        accountant = MemoryAccountant(capacity_bytes=100)
        consumer = _Tally(accountant, 0, held=50)
        accountant.register_spill_consumer(0, consumer)
        accountant.deregister_spill_consumer(0, consumer)
        accountant.reserve(0, EXECUTION, "op", 500)
        assert consumer.asked == []

    def test_evict_up_to_skips_pinned_blocks(self):
        store = BlockStore()
        store.put("shuffle_0_0", "x", size_bytes=500, pinned=True)
        store.put("rdd_1_0", "y", size_bytes=300)
        store.put("rdd_1_1", "z", size_bytes=200)
        freed = store.evict_up_to(10_000)
        assert freed == 500
        assert "shuffle_0_0" in store
        assert "rdd_1_0" not in store and "rdd_1_1" not in store

    def test_evict_up_to_stops_at_target(self):
        store = BlockStore()
        store.put("rdd_1_0", "a", size_bytes=300)
        store.put("rdd_1_1", "b", size_bytes=300)
        # LRU-first: the oldest insertion alone covers the request.
        assert store.evict_up_to(100) == 300
        assert "rdd_1_0" not in store and "rdd_1_1" in store


def _by_first_column(reverse=False):
    """Stable sorting permutation of a batch by its column 0."""

    def order(batch):
        keys = batch.vector(0).to_python_list()
        return sorted(
            range(batch.num_rows), key=keys.__getitem__, reverse=reverse
        )

    return order


def _batch(items):
    """``(key, payload)`` items as a two-column batch."""
    return ColumnBatch.from_rows(items, 2)


class TestExternalSorter:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_merge_equals_single_stable_sort(self, reverse):
        items = [(i % 7, f"item{i}") for i in range(500)]
        sorter = ExternalSorter(_by_first_column(reverse))
        for i, item in enumerate(items):
            sorter.extend(_batch([item]))
            if i in (99, 299):
                sorter.spill(10 ** 9)
        expected = sorted(items, key=lambda p: p[0], reverse=reverse)
        # Stable: equal keys keep arrival order even across spilled runs.
        assert sorter.finish().materialize_rows() == expected

    def test_no_spill_is_plain_sort(self):
        sorter = ExternalSorter(_by_first_column())
        sorter.extend(ColumnBatch.from_columns([[5, 3, 9, 1]]))
        assert sorter.finish().materialize_rows() == [(1,), (3,), (5,), (9,)]

    def test_spill_empty_buffer_is_noop(self):
        sorter = ExternalSorter(_by_first_column())
        assert sorter.spill(100) == (0, 0, 0)

    @pytest.mark.parametrize("chunks", [[200], [1] * 200, [1, 100, 99], [63, 2, 135]])
    def test_one_charge_per_arriving_batch(self, chunks, monkeypatch):
        """The ledger is charged once per batch, as it arrives (a charge
        is where a spill can fire, and it sheds the arriving batch too);
        wherever the spill lands — at the first, a middle or the last
        charge, or nowhere — the result is one stable sort of every row
        added and the ledger holds exactly what stays in memory."""
        for forced in (None, 0, len(chunks) // 2, len(chunks) - 1):
            self._charge_and_merge(chunks, forced, monkeypatch)

    @staticmethod
    def _charge_and_merge(chunks, forced, monkeypatch):
        charges = []
        ledger = [0]

        class StubTask:
            def register_spillable(self, consumer):
                pass

            def reserve_memory(self, owner, nbytes):
                charges.append(nbytes)
                if len(charges) - 1 == forced:
                    sorter.spill(nbytes)
                ledger[0] += nbytes

            def release_memory(self, owner, nbytes):
                ledger[0] -= nbytes
                return nbytes

            metrics = SimpleNamespace(spill_bytes_read=0)

        monkeypatch.setattr(
            "repro.engine.spill.current_task_context", lambda: StubTask()
        )
        monkeypatch.setattr(
            "repro.engine.spill.record_run_written", lambda owner, n: None
        )
        sorter = ExternalSorter(_by_first_column())
        items = [(i % 7, f"item{i}") for i in range(200)]
        start = 0
        for size in chunks:
            sorter.extend(_batch(items[start : start + size]))
            start += size
        row_bytes = charges[0] // chunks[0]
        assert charges == [size * row_bytes for size in chunks]
        kept = chunks if forced is None else chunks[forced + 1 :]
        assert ledger[0] == sum(kept) * row_bytes
        assert sorter.finish().materialize_rows() == sorted(
            items, key=lambda p: p[0]
        )


class TestSpillAccounting:
    def test_note_spill_write_attributes_owner(self):
        accountant = MemoryAccountant()
        accountant.note_spill_write("sort", 1_000, runs=2)
        accountant.note_spill_write("sort", 500, runs=1)
        assert accountant.spill_bytes == 1_500
        assert accountant.spill_runs == 3
        rows = accountant.spill_rows()
        assert rows == [
            {"owner": "sort", "events": 0, "bytes": 1_500, "runs": 3}
        ]

    def test_spill_rows_since_reports_deltas_only(self):
        accountant = MemoryAccountant()
        accountant.note_spill_write("sort", 100, runs=1)
        snapshot = accountant.spill_snapshot()
        accountant.note_spill_write("hash_aggregate", 50, runs=1)
        rows = accountant.spill_rows_since(snapshot)
        assert [row["owner"] for row in rows] == ["hash_aggregate"]
        assert rows[0]["bytes"] == 50
        assert accountant.spill_rows_since(accountant.spill_snapshot()) == []

    def test_describe_includes_spills(self):
        accountant = MemoryAccountant(capacity_bytes=100)
        accountant.reserve(0, EXECUTION, "state", 80)
        consumer = _Tally(accountant, 0, owner="state", held=80)
        accountant.register_spill_consumer(0, consumer)
        accountant.reserve(0, EXECUTION, "op", 80)
        described = accountant.describe()
        assert "spills:" in described
        assert "state" in described


def _write(manager, dep, map_partition, worker_id, records):
    manager.write_map_output(
        dep, map_partition, worker_id, dep.keyed_batch(records)
    )


class TestCorruptFetchRegression:
    """The corrupted-fetch handler must name a real map partition."""

    def _registered(self, ctx, num_maps=2):
        parent = ctx.parallelize([(i, 1) for i in range(8)], num_maps)
        dep = ShuffleDependency(parent, HashPartitioner(2))
        manager = ctx.shuffle_manager
        manager.register(dep, num_maps=num_maps)
        manager._fault_injector = FaultInjector(
            seed=1, corrupt_fetch_rate=1.0
        )
        return manager, dep

    def test_victim_is_a_present_block(self, ctx):
        manager, dep = self._registered(ctx)
        _write(manager, dep, 0, 0, [(0, "a"), (1, "b")])
        _write(manager, dep, 1, 1, [(2, "c"), (3, "d")])
        with pytest.raises(FetchFailedError) as info:
            manager.fetch(dep.shuffle_id, 0)
        # The dropped victim really was registered and present: its
        # owner is a real worker, and the block is gone afterwards.
        assert info.value.map_partition == 0
        assert info.value.worker_id == 0
        assert manager.missing_maps(dep.shuffle_id) == [0]

    def test_stale_victim_skipped_for_present_one(self, ctx):
        manager, dep = self._registered(ctx)
        _write(manager, dep, 0, 0, [(0, "a")])
        _write(manager, dep, 1, 1, [(2, "c")])
        # Partition 0's block vanished (worker-side loss) but its
        # location entry is stale: corruption must pick partition 1,
        # the one whose block it can actually drop.
        ctx.cluster.worker(0).blocks.remove(
            f"shuffle_{dep.shuffle_id}_0"
        )
        with pytest.raises(FetchFailedError) as info:
            manager.fetch(dep.shuffle_id, 0)
        assert info.value.map_partition == 1
        assert info.value.worker_id == 1

    def test_empty_locations_reports_genuinely_missing_map(self, ctx):
        manager, dep = self._registered(ctx)
        # Nothing written yet: no fabricated drop, and the reported
        # partition is one lineage recovery genuinely needs to rerun.
        with pytest.raises(FetchFailedError) as info:
            manager.fetch(dep.shuffle_id, 0)
        assert info.value.map_partition == 0
        assert info.value.worker_id == -1
        assert 0 in manager.missing_maps(dep.shuffle_id)
