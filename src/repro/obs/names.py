"""The canonical registry of every metric and instant name the engine emits.

One declaration per name, grouped by subsystem.  Call sites must use a
name declared here — ``tests/obs/check_metric_names.py`` scans
``src/repro`` for ``metrics.inc/register_counter/observe/register_gauge``
and ``tracer.instant`` literals and fails on any drift in either direction
(an emitted name missing here, or a declared name nothing emits).  This
is what keeps ``task.retry`` from growing a ``tasks.retried`` twin in
another module: new telemetry starts by adding one line to this file.

Each value has one home: no counter repeats another's value, and a
gauge — or a counter whose event its owner already counts — is
registered once, by its owner, with a function that reads it.  A task's
volumes live in its ``TaskMetrics``: the counters that total them
(marked *folded* below) grow when a job ends, by what its kept attempts
did (``engine.scheduler._folded_counters``), and no instant repeats them.

The registry is also the event-log contract: the history store keys its
summaries by these names, so renames are schema changes (see DESIGN.md
§10 on event-log versioning).
"""

from __future__ import annotations

#: Monotonic counters (``metrics.inc`` / ``.register_counter``), dotted
#: lowercase, grouped by subsystem.
COUNTERS = frozenset(
    {
        # engine: jobs, stages, tasks
        "jobs.submitted",
        "stages.run",
        "stages.skipped",
        "stages.failed",
        "tasks.launched",
        "tasks.failed",
        # folded: the jobs' QueryProfile recovery counts
        "tasks.recovered",
        "tasks.retried",
        "tasks.speculative",
        "speculation.launched",
        # shuffle
        "shuffle.fetches",
        "shuffle.fetch_failures",
        "shuffle.corrupt_fetches",
        "shuffle.released",
        "shuffle.released.blocks",
        # folded: kept attempts' shuffle_read_bytes, shuffle_write_bytes
        # and shuffle_write_records
        "shuffle.read.bytes",
        "shuffle.write.bytes",
        "shuffle.write.records",
        # folded, the exchange: one keyed batch per kept map task, and
        # the part of their encoded bytes that is pickled object columns
        # (shuffle_write_pickled_bytes; DESIGN.md §17)
        "exchange.batches",
        "exchange.pickled_bytes",
        # block store / cache
        "blocks.put",
        "blocks.put.bytes",
        "blocks.evicted",
        "blocks.evicted.bytes",
        "cache.hits",
        "cache.misses",
        # memstore appends: trailing deltas a single-block load merged
        # into itself, and the rows re-encoded doing so (write cost)
        "memstore.append.blocks_absorbed",
        "memstore.append.rows_rewritten",
        # cluster membership
        "workers.added",
        "workers.killed",
        "workers.restarted",
        "workers.blacklisted",
        "blacklist.overridden",
        # PDE
        "pde.pre_shuffles",
        "pde.join_decisions",
        "pde.reducer_decisions",
        # vectorized pipeline
        "batch.pipelines",
        # folded: kept attempts' batch_rows (rows a cached scan fed in)
        "batch.rows",
        "batch.batches",
        "batch.kernel.filter",
        "batch.kernel.project",
        "batch.kernel.join",
        "batch.kernel.aggregate",
        # dictionary-domain kernel evaluations: how many ran, the distinct
        # values they evaluated, the rows those stood for
        "batch.kernel.dictionary",
        "batch.dictionary.values",
        "batch.dictionary.rows",
        # query lifecycle
        "queries.executed",
        "queries.submitted",
        "queries.admitted",
        "queries.queued",
        "queries.rejected",
        "queries.completed",
        "queries.cancelled",
        "queries.deadline_expired",
        "queries.failed",
        "queries.circuit_opened",
        "queries.circuit_rejected",
        # multi-tenant serving (SqlServer)
        "server.submitted",
        "server.admitted",
        "server.enqueued",
        "server.completed",
        "server.shed",
        "server.brownouts",
        "tenant.quota_rejected",
        # SQL query caching stack (plan and result caches;
        # repro.sql.cache, served.hits in repro.serving)
        "sqlcache.plan.hits",
        "sqlcache.plan.misses",
        "sqlcache.result.hits",
        "sqlcache.result.misses",
        "sqlcache.invalidations",
        "sqlcache.evictions",
        "sqlcache.evicted.bytes",
        "sqlcache.served.hits",
        # persistent observability (event log / flight recorder)
        "events.logged",
        "flight.dumps",
        # unified memory accounting (monotonic traffic totals; live
        # occupancy lives in the memory.* gauges below)
        "memory.reserved.bytes",
        "memory.released.bytes",
        "memory.pressure.events",
        # memory arbitration: spill-to-disk traffic (per-owner shares use
        # the dynamic name memory.spill.owner.{owner}.bytes) and
        # over-release clamps (should stay zero; see DESIGN.md §12)
        "memory.spill.events",
        "memory.spill.bytes",
        "memory.spill.runs",
        "memory.release.clamped",
        # plan quality: per-operator est-vs-actual profiles and the
        # audit's misestimate count (q-error above threshold); see
        # DESIGN.md §15
        "plan.operator_profiles",
        "plan.misestimates",
        # shuffle skew profiler: shuffles with per-partition histograms
        "skew.shuffles",
        # query doctor: root-cause findings across a two-run diff
        "doctor.findings",
    }
)

#: Point-in-time gauges, read from their owner (``metrics.register_gauge``).
GAUGES = frozenset(
    {
        "eventlog.queries",
        # unified memory accounting: live pool occupancy and peaks,
        # summed across workers; headroom is the tightest worker's
        # remaining budget (only reported when a capacity is configured).
        "memory.storage.used",
        "memory.execution.used",
        "memory.storage.peak",
        "memory.execution.peak",
        "memory.headroom",
        # derived cache-health ratios (from cache.*/blocks.* counters)
        "cache.hit_ratio",
        "blocks.eviction_ratio",
        # multi-tenant serving: registered tenants, total pending
        # queries across tenant queues, and the brownout flag (0/1).
        "server.tenants",
        "server.queue_depth",
        "server.brownout",
        # SQL query cache occupancy (bytes charged to the sql_cache
        # owner and live entry count across both layers).
        "sqlcache.bytes",
        "sqlcache.entries",
        # plan quality: worst q-error the last audited query produced
        "plan.q_error_max",
    }
)

#: Streaming distributions (``metrics.observe``); ``.metrics`` renders
#: their p50/p95/p99.
HISTOGRAMS = frozenset(
    {
        "task.seconds",
        "query.sim_seconds",
        # multi-tenant serving: end-to-end latency (enqueue to terminal)
        # and time spent waiting in the server's pending queues, both in
        # simulated seconds (per-tier twins use the dynamic names
        # server.latency.{tier} / server.queue_wait.{tier}).
        "server.latency",
        "server.queue_wait",
    }
)

#: Zero-duration trace instants (``tracer.instant``).
INSTANTS = frozenset(
    {
        # shuffle (a write's and a fetch's volumes are their task's
        # TaskMetrics: its event-log task record)
        "shuffle.fetch_failed",
        # recovery / robustness
        "lineage.recovery",
        "task.reexecution",
        "task.retry",
        "task.speculative",
        # cluster
        "worker.kill",
        "worker.restart",
        "worker.added",
        "worker.blacklisted",
        "worker.probation",
        # cache
        "cache.hit",
        "block.evict",
        # one per load_rows / INSERT: blocks written, deltas absorbed
        "table.append",
        # PDE and the vectorized pipeline
        "pde.decision",
        "batch.pipeline",
        # query lifecycle
        "query.admitted",
        "query.queued",
        "query.rejected",
        "query.cancelled",
        "query.deadline",
        "query.circuit_open",
        "query.shuffles_released",
        # multi-tenant serving
        "query.shed",
        "server.brownout.enter",
        "server.brownout.exit",
        "tenant.registered",
        # persistent observability
        "flight.dump",
        # unified memory accounting: a reservation exceeded the worker's
        # budget (carries the LRU victim list arbitration then evicts)
        "memory.pressure",
        # arbitration made an execution consumer shed state to disk
        "memory.spill",
    }
)

_KINDS = {
    "counter": COUNTERS,
    "gauge": GAUGES,
    "histogram": HISTOGRAMS,
    "instant": INSTANTS,
}


def is_declared(name: str, kind: str) -> bool:
    """True when ``name`` is registered as a metric of ``kind``."""
    try:
        return name in _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown metric kind {kind!r}") from None


def all_names() -> dict[str, frozenset[str]]:
    """Every registered name, keyed by kind (a copy, safe to mutate)."""
    return dict(_KINDS)
