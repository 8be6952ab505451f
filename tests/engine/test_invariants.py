"""EngineContext.invariant_violations names each kind of leak it guards."""

import pytest

from repro.engine import EngineContext
from repro.engine.lifecycle import LifecycleConfig


@pytest.mark.keeps_engine_state(reason="plants one leak of each kind")
def test_a_clean_context_is_quiet_and_each_planted_leak_is_named():
    ctx = EngineContext(num_workers=4, cores_per_worker=2)
    pairs = ctx.parallelize(range(100), 8).map(lambda x: (x % 7, x))
    sums = pairs.reduce_by_key(lambda a, b: a + b).cache()
    assert len(sums.collect()) == 7
    assert ctx.invariant_violations() == []  # the root owns what it kept
    lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=1))
    for name in ("admitted", "queued"):
        lifecycle.submit(lambda: None, name=name)
    ctx.memory.reserve(1, "execution", "forgotten_op", 96)
    ctx.memory.release(0, "execution", "never_reserved", 40)
    ctx.enable_tracing().begin_span("dangling", "test")
    ctx.cluster.worker(2).blocks.put("shuffle_9999_0", b"x", 8, pinned=True)
    ctx.cluster.put_block(3, "rdd_9999_0", [1, 2, 3], size_bytes=24)
    stale = (ctx.cache_tracker.location(sums.id, 0) + 1) % 4
    ctx.cluster.put_block(stale, f"rdd_{sums.id}_0", [1], size_bytes=8)
    assert sorted(ctx.invariant_violations()) == sorted([
        "worker 1 execution pool: 96 B of forgotten_op",
        "40 B of releases clamped",
        "half-open span dangling",
        "pinned block shuffle_9999_0 of no registered shuffle",
        "lifecycle ledger: 1 running",
        "lifecycle ledger: 1 queued",
        "block rdd_9999_0 on worker 3 is neither a located cached "
        "partition nor a registered map output",
        f"block rdd_{sums.id}_0 on worker {stale} is neither a located "
        "cached partition nor a registered map output",
    ])
    lifecycle.drain()
