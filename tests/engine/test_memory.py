"""Unified memory accounting invariants.

The accountant's contract: every byte reserved anywhere in the engine —
block-store puts, hash-aggregate state, join build sides, shuffle
buffers, broadcasts — is attributed, watermarked, and released, so

* the execution pool balances to exactly zero after every statement,
  whether it succeeded, was cancelled mid-flight, or retried under
  chaos (leaks would compound across a long-lived session);
* the storage pool mirrors the block stores byte for byte;
* pinned shuffle outputs never appear in a pressure event's victim
  list; and
* peak watermarks persisted to the event log round-trip through the
  history store equal to the live ledger, exactly.
"""

import numpy as np
import pytest

from repro import SharkContext
from repro.cluster.worker import BlockStore, approximate_size_bytes
from repro.columnar.batch import ColumnBatch, Vector
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.engine.lifecycle import LifecycleConfig
from repro.engine.memory import (
    DRIVER_WORKER,
    EXECUTION,
    POOLS,
    STORAGE,
    MemoryAccountant,
)
from repro.faults import FaultInjector
from repro.obs.history import HistoryStore


def _build_shark(**kwargs) -> SharkContext:
    shark = SharkContext(num_workers=3, cores_per_worker=2, **kwargs)
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.create_table(
        "buckets", Schema.of(("bucket", STRING), ("region", STRING)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [(f"b{i % 6}", i % 15, float(i % 100)) for i in range(3000)],
        num_partitions=6,
    )
    shark.load_rows(
        "buckets",
        [(f"b{i}", "east" if i % 2 == 0 else "west") for i in range(6)],
        num_partitions=2,
    )
    return shark


QUERIES = [
    "SELECT COUNT(*) FROM readings",
    "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
    "FROM readings GROUP BY bucket",
    "SELECT b.region, COUNT(*) AS n FROM readings r "
    "JOIN buckets b ON r.bucket = b.bucket GROUP BY b.region",
]


class TestLedgerInvariants:
    def test_execution_pool_zero_after_success(self):
        shark = _build_shark()
        for query in QUERIES:
            shark.sql(query)
            # Task state and the join's broadcast build table are all
            # query-scoped: nothing may outlive the statement.
            assert shark.engine.invariant_violations() == []

    def test_execution_pool_zero_after_cancellation(self):
        shark = _build_shark()
        shark.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        victim = shark.submit_sql(
            QUERIES[1], name="victim"
        ).cancel_after_tasks(3)
        shark.submit_sql(QUERIES[0], name="survivor")
        shark.lifecycle.drain()
        assert victim.state == "cancelled"
        assert shark.engine.invariant_violations() == []

    def test_execution_pool_zero_under_chaos(self):
        injector = FaultInjector(
            seed=11, transient_failure_rate=0.15, stragglers_per_stage=1
        )
        shark = _build_shark(fault_injector=injector)
        for query in QUERIES:
            shark.sql(query)
        # Failed attempts released their reservations in task teardown.
        assert shark.engine.invariant_violations() == []

    def test_storage_pool_mirrors_block_stores(self):
        shark = _build_shark()
        for query in QUERIES:
            shark.sql(query)
        stored = sum(
            worker.blocks.used_bytes
            for worker in shark.engine.cluster.workers
        )
        assert shark.engine.memory.live_bytes(STORAGE) == stored

    def test_ledger_balances_traffic_totals(self):
        shark = _build_shark()
        for query in QUERIES:
            shark.sql(query)
        accountant = shark.engine.memory
        assert (
            accountant.total_reserved_bytes
            - accountant.total_released_bytes
            == accountant.live_bytes()
        )

    def test_release_clamps_never_negative(self):
        accountant = MemoryAccountant()
        accountant.reserve(0, EXECUTION, "op", 100)
        assert accountant.release(0, EXECUTION, "op", 500) == 100
        assert accountant.live_bytes() == 0
        # Over-releases are clamped but no longer silent: the excess is
        # tallied so invariant tests can assert it never happened.
        assert accountant.clamped_release_bytes == 400
        assert accountant.release(0, EXECUTION, "op", 1) == 0
        assert accountant.clamped_release_bytes == 401

    def test_resize_grows_and_shrinks(self):
        accountant = MemoryAccountant()
        # Contract: the signed delta actually applied — >= 0 on grow,
        # <= 0 on shrink (callers *add* it to their own tallies).
        assert accountant.resize(0, EXECUTION, "op", 300) == 300
        assert accountant.resize(0, EXECUTION, "op", -100) == -100
        assert accountant.live_bytes(EXECUTION) == 200
        assert accountant.peak_bytes(EXECUTION) == 300
        # Shrinking below zero clamps to what the owner holds.
        assert accountant.resize(0, EXECUTION, "op", -900) == -200
        assert accountant.live_bytes(EXECUTION) == 0


class TestPressure:
    def test_cap_breach_emits_pressure_but_never_fails(self):
        shark = _build_shark(memory_per_worker_bytes=600)
        result = dict(
            shark.sql(
                "SELECT bucket, COUNT(*) FROM readings GROUP BY bucket"
            ).rows
        )
        assert result == {f"b{i}": 500 for i in range(6)}
        assert shark.engine.memory.pressure_events > 0
        assert shark.metrics.value("memory.pressure.events") > 0

    def test_pinned_blocks_never_victim_candidates(self):
        store = BlockStore()
        store.put("shuffle_0_1", "x", size_bytes=500, pinned=True)
        store.put("rdd_3_0", "y", size_bytes=300)
        victims = store.victim_candidates()
        assert victims == [("rdd_3_0", 300)]
        assert store.pinned_ids() == {"shuffle_0_1"}

    def test_pressure_reports_only_evictable_victims(self):
        accountant = MemoryAccountant(capacity_bytes=1_000)
        store = BlockStore(accountant=accountant, worker_id=0)
        store.put("shuffle_0_0", "x", size_bytes=600, pinned=True)
        store.put("rdd_1_0", "y", size_bytes=300)
        # The victim list a breach will carry: the cached partition,
        # never the pinned block.
        victims = [bid for bid, __ in store.victim_candidates()]
        assert victims == ["rdd_1_0"]
        accountant.reserve(0, EXECUTION, "op", 500)
        assert accountant.pressure_events == 1
        # Arbitration then acted on exactly that list: the cached
        # partition was evicted, the pinned block survived.
        assert "rdd_1_0" not in store
        assert "shuffle_0_0" in store

    def test_headroom_tracks_cap(self):
        accountant = MemoryAccountant(capacity_bytes=1_000)
        accountant.reserve(0, STORAGE, "rdd_0", 400)
        assert accountant.ledger(0).headroom() == 600
        assert accountant.ledger(DRIVER_WORKER).headroom() is None


class TestWatermarkRoundTrip:
    def test_history_peaks_equal_live_ledger_exactly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        shark = _build_shark()
        shark.enable_event_log(path, source="test", seed=1)
        for query in QUERIES:
            shark.sql(query)
        live = {
            (worker_id, pool): ledger.peak[pool]
            for worker_id, ledger in shark.engine.memory.ledgers.items()
            for pool in POOLS
        }
        shark.close_event_log()
        store = HistoryStore.load(path)
        assert store.memory_peaks() == live

    def test_history_surfaces_consumers_and_report(self, tmp_path):
        path = tmp_path / "events.jsonl"
        shark = _build_shark(memory_per_worker_bytes=600)
        shark.enable_event_log(path, source="test", seed=1)
        for query in QUERIES:
            shark.sql(query)
        shark.close_event_log()
        store = HistoryStore.load(path)
        owners = {owner for owner, __, __ in store.memory_top_consumers()}
        assert "batch_aggregate" in owners
        assert store.memory_pressure_events() > 0
        report = store.memory_report()
        assert "memory report" in report
        assert "top consumers" in report
        churn = store.cache_churn()
        assert "cache.hit_ratio" in churn
        assert 0.0 <= churn["cache.hit_ratio"] <= 1.0


def _assert_gauges_read_the_ledger(shark: SharkContext) -> None:
    ledgers = shark.engine.memory.ledgers.values()
    for pool in POOLS:
        for field in ("used", "peak"):
            assert shark.metrics.value(f"memory.{pool}.{field}") == sum(
                getattr(ledger, field)[pool] for ledger in ledgers
            )


class TestGauges:
    """The memory.* gauges read the ledger when asked, and nothing
    writes them."""

    def test_mid_query_and_after_a_capped_run(self, monkeypatch):
        shark = _build_shark(memory_per_worker_bytes=600)
        accountant = shark.engine.memory
        reserve = accountant.reserve
        checked = []

        def checking_reserve(*args):
            charged = reserve(*args)
            _assert_gauges_read_the_ledger(shark)
            checked.append(charged)
            return charged

        monkeypatch.setattr(accountant, "reserve", checking_reserve)
        for query in QUERIES:
            shark.sql(query)
        assert len(checked) > len(QUERIES)
        _assert_gauges_read_the_ledger(shark)
        assert shark.metrics.value("memory.headroom") == min(
            ledger.headroom()
            for ledger in accountant.ledgers.values()
            if ledger.headroom() is not None
        )

    def test_headroom_is_omitted_without_a_cap(self):
        shark = _build_shark()
        shark.sql(QUERIES[0])
        gauges = shark.metrics.snapshot()["gauges"]
        assert gauges["memory.storage.used"] > 0
        assert "memory.headroom" not in gauges

    def test_a_gauge_reads_its_owner_after_a_reset(self):
        shark = _build_shark()
        shark.sql(QUERIES[0])
        shark.engine.tracer.reset()
        assert shark.metrics.value("memory.storage.used") > 0
        _assert_gauges_read_the_ledger(shark)


class TestCounters:
    """The memory.* counters read the ledger: each count has one home."""

    def test_spill_bytes_agree_after_a_capped_chaos_run(self):
        injector = FaultInjector(
            seed=11, transient_failure_rate=0.15, stragglers_per_stage=1
        )
        shark = _build_shark(
            memory_per_worker_bytes=600, fault_injector=injector
        )
        for query in QUERIES:
            shark.sql(query)
        accountant = shark.engine.memory
        counters = shark.metrics.snapshot()["counters"]
        per_owner = sum(
            value
            for name, value in counters.items()
            if name.startswith("memory.spill.owner.")
        )
        attributed = sum(
            entry["bytes"] for entry in accountant.spilled_by_owner.values()
        )
        assert accountant.spill_bytes > 0
        assert (
            counters["memory.spill.bytes"]
            == per_owner
            == attributed
            == accountant.spill_bytes
        )
        assert (
            counters["memory.reserved.bytes"]
            == accountant.total_reserved_bytes
        )


class TestSurfacing:
    def test_explain_analyze_has_memory_section(self):
        shark = _build_shark(memory_per_worker_bytes=600)
        text = shark.explain_analyze(
            "SELECT bucket, COUNT(*) FROM readings GROUP BY bucket"
        )
        assert "== memory ==" in text
        assert "peak watermark" in text
        assert "pressure events" in text

    def test_tpch_query_capped_has_memory_section(self):
        from repro.workloads import tpch

        shark = SharkContext(
            num_workers=2, cores_per_worker=2,
            memory_per_worker_bytes=32 * 1024,
        )
        data = tpch.generate_lineitem(2_000)
        shark.create_table("lineitem", data.schema, cached=True)
        shark.load_rows("lineitem", data.rows, num_partitions=4)
        text = shark.explain_analyze(tpch.TPCH_QUERIES["Q6"])
        assert "== memory ==" in text
        assert "peak watermark" in text

    def test_shell_memory_command(self):
        from repro.shell import Shell

        shark = _build_shark()
        shark.sql(QUERIES[1])
        out: list[str] = []
        shell = Shell(shark=shark, write=out.append)
        shell.feed(".memory")
        text = "\n".join(out)
        assert "worker 0" in text
        assert "storage" in text and "execution" in text

    def test_accountant_describe_lists_top_consumers(self):
        shark = _build_shark()
        shark.sql(QUERIES[2])
        described = shark.engine.memory.describe()
        assert "top consumers" in described
        assert "rdd_" in described


class TestFootprints:
    def test_array_vector_exact(self):
        data = np.arange(100, dtype=np.int64)
        assert Vector(data).memory_footprint_bytes() == data.nbytes
        valid = np.ones(100, dtype=bool)
        assert (
            Vector(data, valid).memory_footprint_bytes()
            == data.nbytes + valid.nbytes
        )

    def test_list_vector_counts_objects(self):
        small = Vector(["a", None, "b"]).memory_footprint_bytes()
        large = Vector(["a" * 100, None, "b"]).memory_footprint_bytes()
        assert large > small

    def test_column_batch_sums_entries(self):
        left = Vector(np.arange(10, dtype=np.float64))
        right = Vector(np.arange(10, dtype=np.int32))
        batch = ColumnBatch([left, right], num_rows=10)
        assert batch.memory_footprint_bytes() == (
            left.memory_footprint_bytes() + right.memory_footprint_bytes()
        )

    def test_lazy_column_counts_what_it_pins(self):
        from repro.columnar import ColumnarPartition

        schema = Schema.of(("bucket", STRING), ("v", INT))
        block = ColumnarPartition.from_rows(
            schema, [(f"b{i % 4}", i) for i in range(500)]
        )
        batch = ColumnBatch.from_block(block, [0, 1])
        lazy = batch.memory_footprint_bytes()
        assert lazy > 0
        batch.vector(1)  # decode one column: now counts the vector
        assert batch.memory_footprint_bytes() > 0

    def test_approximate_size_recurses_containers(self):
        flat = approximate_size_bytes({"k": 1})
        nested = approximate_size_bytes({"k": [1] * 1000})
        assert nested > flat + 500
        assert approximate_size_bytes({1, 2, 3}) > approximate_size_bytes(
            set()
        )

    @pytest.mark.parametrize("n", [0, 10, 10_000])
    def test_list_sampling_scales_with_length(self, n):
        estimate = approximate_size_bytes(list(range(n)))
        assert estimate >= n  # at least a byte per element once non-empty
