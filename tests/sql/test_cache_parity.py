"""Cache-on/cache-off parity: caching must be an invisible accelerator.

Every TPC-H and Pavlo workload query runs against a cache-off warehouse
and a cache-on one — cold (first execution populates) then warm (served
from the result cache) — and all three row sets must be repr-identical
(the same float-drift standard as the vectorized parity harness).  A
chaos section repeats the comparison under the fault injector, the
block-memo section proves N same-table queries — interleaved or in
turn, SQL cache on or off — decode every block column exactly once,
and a tiny-cap section churns the eviction path while the memory ledger
stays balanced (zero clamped releases).
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro import SharkContext
from repro.columnar import table
from repro.columnar.serde import read_column
from repro.datatypes import BOOLEAN, DOUBLE, INT, STRING, Schema
from repro.engine.lifecycle import LifecycleConfig
from repro.faults.injector import FaultInjector
from repro.sql import cache as sql_cache_module
from repro.workloads import pavlo, tpch

from tests.sql.test_vectorized_parity import (
    QUERIES,
    assert_byte_identical,
    sim_seconds,
)


@contextmanager
def count_decodes():
    """Decodes per stored block column while the block is open (the
    block store reads each column through ``read_column``): yields the
    dict, id of the column's bytes -> calls."""
    calls: dict = {}

    def decode(payload, rows):
        calls[id(payload)] = calls.get(id(payload), 0) + 1
        return read_column(payload, rows)

    with mock.patch.object(table, "read_column", decode):
        yield calls


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


def _build(sql_cache=False, **context_kwargs):
    shark = SharkContext(num_workers=4, cores_per_worker=2, **context_kwargs)
    for name, data in _datasets().items():
        shark.create_table(name, data.schema, cached=True)
        shark.load_rows(name, data.rows, num_partitions=4)
    shark.register_udf(
        "SOME_UDF", lambda addr: addr.endswith("7"), return_type=BOOLEAN
    )
    if sql_cache:
        shark.enable_sql_cache()
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

    def test_cold_pass_costs_what_uncached_costs(self):
        # Cache probes are free on the simulated clock: a cold miss runs
        # the uncached statement's jobs, to the last simulated second.
        plain, cold = _build(), _build(sql_cache=True)
        for name, text in QUERIES.items():
            assert sim_seconds(cold, text) == sim_seconds(plain, text), name


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


class TestSharedScans:
    """A cached block is its own memo: however many queries read a
    table — interleaved or one after another, whatever their literals,
    SQL cache on or off — each (block, column) they touch is decoded
    once, and every reader sees the solo run's rows."""

    QUERY = (
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket"
    )

    def _scan_ctx(self, sql_cache):
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
            [(f"b{i % 6}", i % 15, i * 0.5) for i in range(4000)],
            num_partitions=8,
        )
        if sql_cache:
            shark.enable_sql_cache()
        return shark

    def test_concurrent_queries_decode_each_block_once(self):
        for sql_cache in (False, True):
            solo = self._scan_ctx(sql_cache)
            with count_decodes() as solo_decodes:
                expected = solo.sql(self.QUERY).rows
            assert solo_decodes and set(solo_decodes.values()) == {1}

            shark = self._scan_ctx(sql_cache)
            shark.enable_lifecycle(
                LifecycleConfig(max_concurrent=3, max_queued=4)
            )
            with count_decodes() as decodes:
                handles = [
                    shark.submit_sql(self.QUERY, name=f"reader-{i}")
                    for i in range(3)
                ]
                shark.lifecycle.drain()
            # Three interleaved scans (each looked its result up before
            # any stored one), one decode per block column.
            if sql_cache:
                assert shark.sql_cache.result_hits == 0
            assert len(decodes) == len(solo_decodes)
            assert set(decodes.values()) == {1}
            for handle in handles:
                assert_byte_identical(
                    handle.result_or_raise().rows, expected
                )

    def test_different_literals_share_decoded_blocks(self):
        # The memo holds no predicate: a later select over the same
        # columns with another literal decodes nothing.
        queries = [
            f"SELECT bucket, value FROM readings WHERE day < {cutoff}"
            for cutoff in (5, 9, 12)
        ]
        reference = self._scan_ctx(False)
        expected = [reference.sql(query).rows for query in queries]
        for sql_cache in (False, True):
            shark = self._scan_ctx(sql_cache)
            with count_decodes() as first:
                shark.sql(queries[0])
            with count_decodes() as later:
                for query, rows in zip(queries, expected):
                    assert_byte_identical(shark.sql(query).rows, rows)
            assert first and set(first.values()) == {1}
            assert not later

    def test_full_stack_concurrent_soak(self):
        # All layers on: whichever mix of result hits and scans the
        # interleaving produces, the rows never diverge.
        shark = self._scan_ctx(False)
        cache = shark.enable_sql_cache()
        shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=3, max_queued=8)
        )
        expected = None
        with count_decodes() as decodes:
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
        assert cache.result_hits > 0
        assert set(decodes.values()) == {1}


class TestCappedEviction:
    """Tiny caps force constant eviction churn; the ledger must stay
    balanced (reserves exactly matched by releases, zero clamps)."""

    def test_eviction_churn_balances_ledger(self, uncached_rows, monkeypatch):
        # The real caps (256 entries, 16 MiB) take hundreds of distinct
        # queries to reach; these make every pass churn.
        monkeypatch.setattr(sql_cache_module, "MAX_RESULT_ENTRIES", 4)
        monkeypatch.setattr(sql_cache_module, "MAX_RESULT_BYTES", 8 * 1024)
        shark = _build(sql_cache=True)
        for _pass in range(2):
            for name in sorted(QUERIES):
                got = shark.sql(QUERIES[name])
                assert_byte_identical(got.rows, uncached_rows[name])
        cache = shark.sql_cache
        assert cache.evictions > 0
        # Whatever survives the churn is exactly what the cache thinks
        # it holds (the sqlcache.bytes gauge mirrors bytes_cached).
        assert shark.metrics.value("sqlcache.bytes") == (
            cache.bytes_cached
        )

    def test_capped_worker_memory_parity(self, uncached_rows):
        # The PR 7 arbitration interplay: a per-worker cap evicts and
        # spills beneath a warm result cache — invisibly.
        shark = _build(
            sql_cache=True, memory_per_worker_bytes=48 * 1024
        )
        for name in ("tpch_q1", "tpch_q3", "pavlo_agg_full"):
            cold = shark.sql(QUERIES[name])
            assert_byte_identical(cold.rows, uncached_rows[name])
            warm = shark.sql(QUERIES[name])
            assert_byte_identical(warm.rows, uncached_rows[name])
