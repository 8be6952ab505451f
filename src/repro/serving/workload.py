"""Zipfian heavy-traffic workload generator and the overload soak.

The serving layer's acceptance gate: drive a :class:`~repro.serving.
server.SqlServer` with thousands of queries under Zipfian tenant/query
skew and a concurrency cap far below the offered load, then prove the
system degraded *gracefully*:

* shedding hit only the lowest priority tier (zero ``interactive``
  sheds while lower tiers had queued work),
* every admitted-and-completed query's result is byte-identical to an
  uncontended fault-free run of the same SQL,
* per-tier p50/p95/p99 latency is reported from the event log, and
* nothing leaked afterwards — the context's cleanup invariants hold
  (``EngineContext.invariant_violations``), no shuffle is registered,
  every stored block belongs to a live table, and no served ticket or
  handle is reachable once the soak drops its own.

Run the soak (the CI serving gate) with::

    PYTHONPATH=src python -m repro.serving.workload \\
        --queries 1000 --chaos --report-out soak_report.txt

Everything is seeded (``random.Random``), so two runs produce identical
admission decisions, identical shed sets, and byte-identical survivor
results — chaos included.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import weakref
from dataclasses import dataclass
from typing import Optional

from repro.engine.task import _rdd_block_id
from repro.errors import TenantQuotaExceeded
from repro.serving.server import ServerConfig, SqlServer
from repro.serving.tenants import (
    BATCH,
    BEST_EFFORT,
    INTERACTIVE,
    TenantQuota,
)

#: Query templates, reused across tenants so Zipfian query skew shares
#: plans (and the circuit breaker's per-(tenant, key) scoping matters).
QUERY_TEMPLATES: tuple[tuple[str, str], ...] = (
    (
        "agg-bucket",
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket",
    ),
    (
        "filter-40",
        "SELECT day, COUNT(*) AS n FROM readings "
        "WHERE value > 40 GROUP BY day",
    ),
    (
        "filter-70",
        "SELECT day, COUNT(*) AS n FROM readings "
        "WHERE value > 70 GROUP BY day",
    ),
    ("count-all", "SELECT COUNT(*) FROM readings"),
    (
        "sum-day",
        "SELECT day, SUM(value) AS total FROM readings GROUP BY day",
    ),
)

#: The tenant fleet, by Zipf rank: one interactive, two batch, two
#: best-effort.
TENANTS: tuple[tuple[str, str], ...] = (
    ("dashboards", INTERACTIVE),
    ("etl", BATCH),
    ("reports", BATCH),
    ("crawler", BEST_EFFORT),
    ("scratch", BEST_EFFORT),
)
#: Zipf exponent of the tenant and template picks.
ZIPF_SKEW = 1.2
#: A best-effort submission's deadline: meetable, or tight at
#: ``TIGHT_DEADLINE_RATE``.
BEST_EFFORT_DEADLINE_S = 40.0
TIGHT_DEADLINE_S = 0.5
TIGHT_DEADLINE_RATE = 0.25


@dataclass(frozen=True)
class Submission:
    """One generated request: who asks what, with which deadline."""

    tenant: str
    template: str
    text: str
    deadline_s: Optional[float]


class ZipfianWorkload:
    """Seeded generator of Zipf-skewed (tenant, query) traffic.

    Tenant and template picks follow a Zipf law (probability
    proportional to ``1 / rank ** ZIPF_SKEW``), so one tenant dominates the
    offered load — the exact overload shape the server's quotas and
    weighted fairness must absorb.  Only ``best_effort`` submissions
    carry deadlines (a seeded mix of meetable and tight), so every
    deadline shed lands in the lowest tier by construction.
    """

    def __init__(self, seed: int = 29, queries: int = 1000) -> None:
        self.seed = seed
        self.queries = queries

    def _zipf_pick(self, rng: random.Random, count: int) -> int:
        weights = [1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(count)]
        total = sum(weights)
        roll = rng.random() * total
        for index, weight in enumerate(weights):
            roll -= weight
            if roll <= 0:
                return index
        return count - 1

    def generate(self) -> list[Submission]:
        rng = random.Random(self.seed)
        priorities = dict(TENANTS)
        out: list[Submission] = []
        for _ in range(self.queries):
            tenant, __ = TENANTS[self._zipf_pick(rng, len(TENANTS))]
            template, text = QUERY_TEMPLATES[
                self._zipf_pick(rng, len(QUERY_TEMPLATES))
            ]
            deadline = None
            if priorities[tenant] == BEST_EFFORT:
                deadline = (
                    TIGHT_DEADLINE_S
                    if rng.random() < TIGHT_DEADLINE_RATE
                    else BEST_EFFORT_DEADLINE_S
                )
            out.append(
                Submission(
                    tenant=tenant,
                    template=template,
                    text=text,
                    deadline_s=deadline,
                )
            )
        return out


# ----------------------------------------------------------------------
# The overload soak
# ----------------------------------------------------------------------
def build_serving_context(
    fault_seed: Optional[int] = None,
    rows: int = 6000,
    sql_cache: bool = False,
):
    """A SharkContext with the soak's cached ``readings`` table
    (optionally under seeded chaos and/or the SQL caching stack)."""
    from repro import SharkContext
    from repro.datatypes import DOUBLE, INT, STRING, Schema

    injector = None
    if fault_seed is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(
            seed=fault_seed,
            transient_failure_rate=0.08,
            stragglers_per_stage=1,
            straggler_slowdown=4.0,
        )
    shark = SharkContext(
        num_workers=4, cores_per_worker=2, fault_injector=injector
    )
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [
            (f"b{i % 6}", i % 15, float(i % 100))
            for i in range(rows)
        ],
        num_partitions=8,
    )
    if sql_cache:
        shark.enable_sql_cache()
    return shark


def build_server(shark, queries: int) -> SqlServer:
    """A server whose capacity is far below the offered load, with
    quotas and brownout thresholds scaled to the soak size.

    The quota arithmetic is deliberate: interactive + batch pending
    work is capped (via ``max_queued``) *below* the brownout exit
    depth, so a brownout can always shed its way back to the exit
    threshold from ``best_effort`` work alone — the higher tiers are
    protected by admission-time quota rejections instead of shedding.
    """
    server = SqlServer(
        shark,
        ServerConfig(
            engine_slots=3,
            brownout_enter_depth=max(queries // 5, 40),
            brownout_exit_depth=max(queries // 7, 32),
        ),
    )
    server.register_tenant(
        "dashboards", INTERACTIVE,
        TenantQuota(max_concurrent=2, max_queued=max(queries // 25, 8)),
    )
    for name in ("etl", "reports"):
        server.register_tenant(
            name, BATCH,
            TenantQuota(
                max_concurrent=2,
                max_queued=max(queries // 33, 6),
                budget_seconds=300.0,
                window_seconds=100000.0,
            ),
        )
    # Best-effort queues are effectively unbounded: the overload lands
    # here, and the brownout/deadline shedding machinery absorbs it.
    for name in ("crawler", "scratch"):
        server.register_tenant(
            name, BEST_EFFORT,
            TenantQuota(max_concurrent=1, max_queued=queries),
        )
    return server


def run_soak(
    queries: int = 1000,
    seed: int = 29,
    fault_seed: Optional[int] = None,
    event_log_out: Optional[str] = None,
    report_out: Optional[str] = None,
    verbose: bool = True,
    sql_cache: bool = False,
) -> int:
    """Drive the overload soak and verify every serving gate; returns a
    process exit code (0 = all gates hold)."""
    say = print if verbose else (lambda *a, **k: None)
    failures: list[str] = []

    shark = build_serving_context(fault_seed=fault_seed, sql_cache=sql_cache)
    if event_log_out:
        shark.enable_event_log(event_log_out, source="serving-soak")
    server = build_server(shark, queries)
    workload = ZipfianWorkload(seed=seed, queries=queries)
    submissions = workload.generate()

    rejected = 0
    tickets = []
    for index, request in enumerate(submissions):
        try:
            tickets.append(
                server.submit(
                    request.tenant,
                    request.text,
                    name=f"{request.tenant}-{index}-{request.template}",
                    deadline_s=request.deadline_s,
                    key=request.template,
                )
            )
        except TenantQuotaExceeded:
            rejected += 1
    say(
        f"offered {len(submissions)} queries: "
        f"{len(tickets)} accepted, {rejected} quota-rejected"
    )

    finished = server.drain()
    say(server.describe())

    # Gate 1: shedding never touched a tier above the lowest with work.
    shed = [t for t in finished if t.state == "shed"]
    shed_tiers = sorted({t.priority for t in shed})
    if not shed and not sql_cache:
        # With the caching stack on, result hits drain so fast the
        # overload may never build — zero sheds is then the win, not a
        # vacuous soak; the hit-ratio gate below keeps it honest.
        failures.append(
            "vacuous soak: overload produced zero sheds "
            "(raise --queries or lower capacity)"
        )
    if sql_cache and server.cache_hits == 0:
        failures.append(
            "caching enabled but zero completions were served from "
            "the result cache"
        )
    if any(t.priority == INTERACTIVE for t in shed):
        failures.append("interactive-tier queries were shed")
    if shed_tiers not in ([], [BEST_EFFORT]):
        failures.append(
            f"shedding escaped the lowest tier: hit {shed_tiers}"
        )
    say(f"shed {len(shed)} queries, tiers hit: {shed_tiers or 'none'}")

    # Gate 2: every completed query byte-identical to an uncontended
    # fault-free run of the same SQL.
    completed = [t for t in finished if t.state == "done"]
    baseline_ctx = build_serving_context(fault_seed=None)
    baseline: dict[str, list] = {}
    divergent = 0
    for ticket in completed:
        if ticket.text not in baseline:
            baseline[ticket.text] = sorted(
                baseline_ctx.sql(ticket.text).rows
            )
        if sorted(ticket.result.rows) != baseline[ticket.text]:
            divergent += 1
            failures.append(f"result divergence: {ticket.name}")
    say(
        f"{len(completed)} completed queries vs uncontended baseline: "
        f"{divergent} divergent"
    )

    # Gate 3: nothing leaked.  Stricter than the context's invariants:
    # no shuffle is still registered, every stored block is a live
    # table's, and no table piled up deltas (trickle appends merge).
    failures += shark.engine.invariant_violations()
    if shark.engine.shuffle_manager.registered_block_ids():
        failures.append("shuffle map outputs still registered")
    live_blocks: set[str] = set()
    catalog = shark.session.catalog
    for entry in map(catalog.get, catalog.table_names()):
        if entry.cached_rdd is None:
            continue
        blocks = entry.cached_rdd.blocks
        live_blocks |= {_rdd_block_id(b.rdd.id, b.split) for b in blocks}
        deltas = sum(block.delta for block in blocks)
        if deltas > 11:
            failures.append(f"{entry.name} holds {deltas} delta blocks")
    stray = [
        block_id
        for worker in shark.engine.cluster.workers
        for block_id in worker.blocks.block_ids()
        if block_id not in live_blocks
    ]
    if stray:
        failures.append(f"blocks of no live table: {sorted(stray)[:5]}")

    # Gate 4: per-tier latency percentiles from the event log.
    report_lines = [
        f"serving soak: {len(submissions)} offered, "
        f"{len(tickets)} accepted, {rejected} quota-rejected, "
        f"{len(completed)} completed, {len(shed)} shed "
        f"(tiers: {shed_tiers or 'none'})",
        server.describe(),
    ]
    for line in server.summary_lines():
        report_lines.append(line)
        say(line)
    if event_log_out:
        shark.close_event_log()
        from repro.obs.history import HistoryStore

        store = HistoryStore.load(event_log_out)
        tiers = store.tier_latencies()
        if not tiers:
            failures.append("event log carries no per-tier latencies")
        report_lines.append(store.tenant_report())
        say(store.tenant_report())

    # Gate 3 on the driver: with the soak's own tickets dropped, no
    # served ticket or handle is reachable.
    served = [weakref.ref(x) for t in tickets for x in (t, t.handle) if x]
    tickets = finished = shed = completed = ticket = None
    gc.collect()
    if any(ref() is not None for ref in served):
        failures.append("a finished ticket or handle is still reachable")

    if report_out:
        with open(report_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(report_lines) + "\n")
        say(f"report written to {report_out}")

    if failures:
        say("\nFAIL:")
        for failure in failures:
            say(f"  - {failure}")
        return 1
    say("\nOK: every serving gate holds")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.workload",
        description=(
            "Zipfian overload soak against the multi-tenant SQL server."
        ),
    )
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run under the seeded fault injector",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=13,
        help="fault-injector seed (with --chaos)",
    )
    parser.add_argument(
        "--event-log-out",
        help="stream the soak's event log here (enables the per-tier "
        "latency report gate)",
    )
    parser.add_argument("--report-out", help="write the soak report here")
    parser.add_argument(
        "--sql-cache",
        action="store_true",
        help="enable the plan/result caching stack and gate "
        "on a non-zero served hit ratio",
    )
    args = parser.parse_args(argv)
    return run_soak(
        queries=args.queries,
        seed=args.seed,
        fault_seed=args.fault_seed if args.chaos else None,
        event_log_out=args.event_log_out,
        report_out=args.report_out,
        sql_cache=args.sql_cache,
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
