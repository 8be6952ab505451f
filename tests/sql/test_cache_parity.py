"""Cache-on/cache-off parity: caching must be an invisible accelerator.

Every TPC-H and Pavlo workload query runs against a cache-off warehouse
and a cache-on one — cold (first execution populates) then warm (served
from the result cache) — and all three row sets must be repr-identical
(the same float-drift standard as the vectorized parity harness).  A
chaos section repeats the comparison under the fault injector, the
shared-scan soak proves N concurrent same-table queries decode every
block exactly once, and a tiny-cap section churns the eviction path
while the memory ledger stays balanced (zero clamped releases).
"""

import pytest

from repro import SharkContext
from repro.datatypes import BOOLEAN, DOUBLE, INT, STRING, Schema
from repro.engine.lifecycle import LifecycleConfig
from repro.engine.memory import EXECUTION
from repro.faults.injector import FaultInjector
from repro.sql.cache import SqlCacheConfig
from repro.workloads import pavlo, tpch

from tests.sql.test_vectorized_parity import (
    QUERIES,
    assert_byte_identical,
)


def _datasets():
    return {
        "lineitem": tpch.generate_lineitem(3000),
        "orders": tpch.generate_orders(800),
        "customer": tpch.generate_customer(100),
        "supplier": tpch.generate_supplier(60),
        "rankings": pavlo.generate_rankings(600),
        "uservisits": pavlo.generate_uservisits(
            1500, num_pages=600, num_ips=120
        ),
    }


def _build(sql_cache=False, cache_config=None, **context_kwargs):
    shark = SharkContext(num_workers=4, cores_per_worker=2, **context_kwargs)
    for name, data in _datasets().items():
        shark.create_table(name, data.schema, cached=True)
        shark.load_rows(name, data.rows, num_partitions=4)
    shark.register_udf(
        "SOME_UDF", lambda addr: addr.endswith("7"), return_type=BOOLEAN
    )
    if sql_cache:
        shark.enable_sql_cache(cache_config)
    return shark


@pytest.fixture(scope="module")
def uncached():
    return _build()


@pytest.fixture(scope="module")
def uncached_rows(uncached):
    return {name: uncached.sql(QUERIES[name]).rows for name in QUERIES}


@pytest.fixture(scope="module")
def cached():
    return _build(sql_cache=True)


class TestColdWarmParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_cold_then_warm_identical(self, cached, uncached_rows, name):
        cold = cached.sql(QUERIES[name])
        assert not cold.cache_hit
        assert_byte_identical(cold.rows, uncached_rows[name])
        warm = cached.sql(QUERIES[name])
        assert warm.cache_hit
        assert_byte_identical(warm.rows, uncached_rows[name])

    def test_warm_pass_ran_zero_jobs(self, cached):
        # Result-cache hits cost no engine work on the simulated clock.
        before = cached.metrics.value("jobs.submitted")
        result = cached.sql(QUERIES["tpch_q1"])
        assert result.cache_hit
        assert cached.metrics.value("jobs.submitted") == before


class TestChaosParity:
    CHAOS = ("tpch_q1", "tpch_q6", "pavlo_agg_substr")

    def test_chaos_cold_and_warm_identical(self, uncached_rows):
        injector = FaultInjector(
            seed=13,
            transient_failure_rate=0.25,
            stragglers_per_stage=1,
        )
        shark = _build(sql_cache=True, fault_injector=injector)
        for name in self.CHAOS:
            cold = shark.sql(QUERIES[name])
            assert_byte_identical(cold.rows, uncached_rows[name])
            warm = shark.sql(QUERIES[name])
            assert warm.cache_hit
            assert_byte_identical(warm.rows, uncached_rows[name])
        assert shark.engine.memory.clamped_release_bytes == 0


class TestSharedScans:
    """N concurrent same-table queries decode every block exactly once:
    the first toucher pays the decode, late arrivals attach."""

    QUERY = (
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket"
    )

    def _scan_ctx(self):
        shark = SharkContext(num_workers=4, cores_per_worker=2)
        shark.create_table(
            "readings",
            Schema.of(
                ("bucket", STRING), ("day", INT), ("value", DOUBLE)
            ),
            cached=True,
        )
        shark.load_rows(
            "readings",
            [(f"b{i % 6}", i % 15, float(i % 100)) for i in range(4000)],
            num_partitions=8,
        )
        return shark

    def test_concurrent_queries_decode_each_block_once(self):
        # Reference: how many blocks does one solo run decode?
        # (Result cache off so every execution actually scans.)
        solo = self._scan_ctx()
        solo.enable_sql_cache(SqlCacheConfig(enable_result=False))
        before = solo.metrics.value("batch.batches")
        expected = solo.sql(self.QUERY).rows
        solo_blocks = solo.metrics.value("batch.batches") - before
        assert solo_blocks > 0

        shark = self._scan_ctx()
        cache = shark.enable_sql_cache(
            SqlCacheConfig(enable_result=False)
        )
        shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=3, max_queued=4)
        )
        before = shark.metrics.value("batch.batches")
        handles = [
            shark.submit_sql(self.QUERY, name=f"reader-{i}")
            for i in range(3)
        ]
        shark.lifecycle.drain()
        decoded = shark.metrics.value("batch.batches") - before
        # Three concurrent scans, one decode per block — not 3x.
        assert decoded == solo_blocks
        assert cache.fragment_hits > 0
        assert cache.shared_attached > 0
        assert shark.metrics.value("sqlcache.shared.attached") > 0
        for handle in handles:
            assert_byte_identical(
                handle.result_or_raise().rows, expected
            )

    def test_different_literals_share_decoded_blocks(self):
        # The fragment key holds no predicate: a second select over the
        # same columns with another literal decodes nothing.
        queries = [
            f"SELECT bucket, value FROM readings WHERE day < {cutoff}"
            for cutoff in (5, 9)
        ]
        reference = self._scan_ctx()
        shark = self._scan_ctx()
        cache = shark.enable_sql_cache(SqlCacheConfig(enable_result=False))
        blocks = 8  # one per partition loaded by _scan_ctx
        before = shark.metrics.value("batch.batches")
        for query in queries:
            assert_byte_identical(
                shark.sql(query).rows, reference.sql(query).rows
            )
        assert shark.metrics.value("batch.batches") - before == blocks
        assert cache.fragment_hits == blocks
        assert shark.metrics.value("sqlcache.fragment.hits") > 0

    def test_full_stack_concurrent_soak(self):
        # All layers on: whichever mix of result hits and shared scans
        # the interleaving produces, the rows never diverge.
        shark = self._scan_ctx()
        cache = shark.enable_sql_cache()
        shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=3, max_queued=8)
        )
        expected = None
        handles = [
            shark.submit_sql(self.QUERY, name=f"mixed-{i}")
            for i in range(6)
        ]
        shark.lifecycle.drain()
        for handle in handles:
            rows = handle.result_or_raise().rows
            if expected is None:
                expected = rows
            assert_byte_identical(rows, expected)
        assert cache.result_hits + cache.shared_attached > 0
        assert shark.engine.memory.clamped_release_bytes == 0


class TestCappedEviction:
    """Tiny caps force constant eviction churn; the ledger must stay
    balanced (reserves exactly matched by releases, zero clamps)."""

    def test_eviction_churn_balances_ledger(self, uncached_rows):
        config = SqlCacheConfig(
            max_result_entries=4,
            max_result_bytes=8 * 1024,
            max_fragment_bytes=16 * 1024,
        )
        shark = _build(sql_cache=True, cache_config=config)
        for _pass in range(2):
            for name in sorted(QUERIES):
                got = shark.sql(QUERIES[name])
                assert_byte_identical(got.rows, uncached_rows[name])
        cache = shark.sql_cache
        assert cache.evictions > 0
        assert shark.metrics.value("memory.release.clamped") == 0
        assert shark.engine.memory.clamped_release_bytes == 0
        assert shark.engine.memory.live_bytes(EXECUTION) == 0
        # Whatever survives the churn is exactly what the cache thinks
        # it holds (the sqlcache.bytes gauge mirrors bytes_cached).
        assert shark.metrics.value("sqlcache.bytes") == (
            cache.bytes_cached
        )

    def test_capped_worker_memory_parity(self, uncached_rows):
        # The PR 7 arbitration interplay: under a per-worker cap the
        # accountant may evict cached fragments (a registered spill
        # consumer) before execution state spills — invisibly.
        shark = _build(
            sql_cache=True, memory_per_worker_bytes=48 * 1024
        )
        for name in ("tpch_q1", "tpch_q3", "pavlo_agg_full"):
            cold = shark.sql(QUERIES[name])
            assert_byte_identical(cold.rows, uncached_rows[name])
            warm = shark.sql(QUERIES[name])
            assert_byte_identical(warm.rows, uncached_rows[name])
        assert shark.engine.memory.clamped_release_bytes == 0
        assert shark.engine.memory.live_bytes(EXECUTION) == 0
