"""Memory-bounded block stores: eviction, pinning, recompute-on-evict.

The paper keeps "high-value data" in the memstore and relies on lineage
to make single-copy caching safe; the same property makes *eviction* safe:
a cached partition dropped under memory pressure is simply recomputed on
the next read, while pinned shuffle outputs never vanish silently.
"""

import pytest

from repro.cluster.worker import BlockStore
from repro.engine import EngineContext


class TestBlockStoreEviction:
    def test_unlimited_by_default(self):
        store = BlockStore()
        for i in range(100):
            store.put(f"b{i}", [0] * 1000)
        assert len(store) == 100
        assert store.evictions == 0

    def test_lru_eviction_order(self):
        store = BlockStore(capacity_bytes=3000)
        store.put("a", "x", size_bytes=1000)
        store.put("b", "x", size_bytes=1000)
        store.put("c", "x", size_bytes=1000)
        store.get("a")  # refresh a: b becomes the LRU victim
        store.put("d", "x", size_bytes=1000)
        assert "b" not in store
        assert "a" in store and "c" in store and "d" in store
        assert store.evictions == 1

    def test_pinned_blocks_survive_pressure(self):
        store = BlockStore(capacity_bytes=2000)
        store.put("shuffle", "x", size_bytes=1500, pinned=True)
        store.put("cache1", "x", size_bytes=1000)
        store.put("cache2", "x", size_bytes=1000)
        assert "shuffle" in store
        assert store.evictions >= 1

    def test_only_pinned_blocks_left_stops_evicting(self):
        store = BlockStore(capacity_bytes=100)
        store.put("s1", "x", size_bytes=90, pinned=True)
        store.put("s2", "x", size_bytes=90, pinned=True)
        # Over capacity but nothing evictable: both stay.
        assert "s1" in store and "s2" in store

    def test_reput_replaces_not_duplicates(self):
        store = BlockStore(capacity_bytes=5000)
        store.put("a", "x", size_bytes=1000)
        store.put("a", "y", size_bytes=2000)
        assert store.used_bytes == 2000
        assert store.get("a") == "y"

    def test_restart_preserves_capacity(self):
        from repro.cluster.worker import Worker

        worker = Worker(worker_id=0, blocks=BlockStore(capacity_bytes=123))
        worker.kill()
        worker.restart()
        assert worker.blocks.capacity_bytes == 123


class TestEngineUnderMemoryPressure:
    def test_cached_rdd_correct_despite_eviction(self):
        ctx = EngineContext(
            num_workers=2, cores_per_worker=2,
            memory_per_worker_bytes=20_000,
        )
        big = ctx.parallelize(range(5000), 8).map(lambda x: x * 2).cache()
        first = big.collect()
        # Cache more data than fits: some partitions evict.
        other = ctx.parallelize(range(5000, 10000), 8).cache()
        other.collect()
        second = big.collect()  # evicted partitions recompute via lineage
        assert first == second
        evictions = sum(
            worker.blocks.evictions for worker in ctx.cluster.workers
        )
        assert evictions > 0

    def test_shuffle_survives_cache_pressure(self):
        ctx = EngineContext(
            num_workers=2, cores_per_worker=2,
            memory_per_worker_bytes=15_000,
        )
        pairs = ctx.parallelize([(i % 7, 1) for i in range(3000)], 6)
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        before = sorted(reduced.collect())
        # Flood the caches; pinned shuffle outputs must not evict.
        ctx.parallelize(range(8000), 8).cache().collect()
        after = sorted(reduced.collect())
        assert before == after == [(k, 3000 // 7 + (1 if k < 3000 % 7 else 0))
                                   for k in range(7)]

    def test_sql_on_memory_limited_cluster(self):
        from repro import SharkContext
        from repro.datatypes import INT, STRING, Schema

        shark = SharkContext(num_workers=2)
        # Clamp the workers after creation (SharkContext default engine).
        for worker in shark.engine.cluster.workers:
            worker.blocks.capacity_bytes = 30_000
        shark.create_table(
            "t", Schema.of(("g", STRING), ("v", INT)), cached=True
        )
        shark.load_rows("t", [(f"g{i % 5}", i) for i in range(4000)])
        result = dict(
            shark.sql("SELECT g, COUNT(*) FROM t GROUP BY g").rows
        )
        assert result == {f"g{i}": 800 for i in range(5)}


class TestEvictionThenRecompute:
    """Regression: a cached table whose partitions were LRU-evicted must
    recompute via lineage and answer byte-identically — and the eviction
    must be visible in QueryProfile.describe() and EXPLAIN ANALYZE."""

    def _build(self):
        from repro import SharkContext
        from repro.datatypes import INT, STRING, Schema

        # Small enough that the cached columnar partitions cannot all
        # fit: every query re-reads some partitions through lineage.
        shark = SharkContext(
            num_workers=2, memory_per_worker_bytes=1_000
        )
        shark.create_table(
            "t", Schema.of(("g", STRING), ("v", INT)), cached=True
        )
        shark.load_rows(
            "t", [(f"g{i % 7}", i) for i in range(6000)], num_partitions=8
        )
        return shark

    def test_recompute_is_byte_identical(self):
        shark = self._build()
        query = "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g"
        first = sorted(shark.sql(query).rows)
        evicted = shark.metrics.value("blocks.evicted")
        assert evicted > 0, "capacity was not small enough to force eviction"
        # Evicted partitions recompute from lineage on the second read.
        second = sorted(shark.sql(query).rows)
        assert first == second

    def test_eviction_surfaced_in_profile_describe(self):
        shark = self._build()
        shark.engine.reset_profiles()
        shark.sql("SELECT g, COUNT(*) FROM t GROUP BY g")
        profiles = shark.engine.profiles
        evicted = sum(p.evicted_blocks for p in profiles)
        evicted_bytes = sum(p.evicted_bytes for p in profiles)
        assert evicted > 0
        assert evicted_bytes > 0
        described = "\n".join(p.describe() for p in profiles)
        assert "evicted cache blocks" in described

    def test_eviction_surfaced_in_explain_analyze(self):
        shark = self._build()
        text = shark.explain_analyze(
            "SELECT g, COUNT(*) FROM t GROUP BY g"
        )
        assert "evicted cache blocks" in text
