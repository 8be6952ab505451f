"""Chaos run: injected faults, identical answers.

The paper's robustness claim (Sections 2 and 7) is that fine-grained
deterministic tasks make mid-query failures and stragglers a performance
event, not a correctness event.  This demo proves it end to end: the same
benchmark queries run twice — once fault-free, once under a seeded
:class:`~repro.faults.FaultInjector` that fails ~10% of task attempts,
kills a worker permanently mid-run, slows one task per stage by 8x, and
corrupts a shuffle fetch — and the results must be byte-identical.

Run with::

    python examples/chaos_demo.py --seed 7

Exits non-zero on any result divergence (the CI chaos job relies on
this).  Pass ``--trace-out trace.json`` to record the chaos run — every
retry backoff, speculative copy, blacklisting, and lineage recovery —
as Chrome-trace JSON viewable at https://ui.perfetto.dev.
"""

import argparse
import sys

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.faults import FaultInjector


QUERIES = {
    "count": "SELECT COUNT(*) FROM readings",
    "aggregate": (
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket"
    ),
    "filter-group": (
        "SELECT day, COUNT(*) AS n FROM readings "
        "WHERE value > 40 GROUP BY day"
    ),
    "join": (
        "SELECT b.region, COUNT(*) AS n, SUM(r.value) AS total "
        "FROM readings r JOIN buckets b ON r.bucket = b.bucket "
        "GROUP BY b.region"
    ),
}


#: Per-worker memory budget for both runs: small enough that cache puts
#: and operator state cross it (exercising arbitration — cache eviction
#: first, then consumer spill-to-disk), large enough that every query
#: still answers correctly.  The verdict fails if no spill fired.
#: (Shuffle blocks and operator state weigh their encoded bytes — a few
#: hundred per task here — so the budget is a small one.)
MEMORY_PER_WORKER_BYTES = 1024


def build_context(fault_injector=None) -> SharkContext:
    shark = SharkContext(
        num_workers=6,
        cores_per_worker=2,
        memory_per_worker_bytes=MEMORY_PER_WORKER_BYTES,
        fault_injector=fault_injector,
    )
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.create_table(
        "buckets",
        Schema.of(("bucket", STRING), ("region", STRING)),
        cached=True,
    )
    readings = [
        (f"b{i % 8}", i % 30, float(i % 1000) / 10.0) for i in range(12_000)
    ]
    shark.load_rows("readings", readings, num_partitions=12)
    shark.load_rows(
        "buckets",
        [(f"b{i}", "east" if i % 2 == 0 else "west") for i in range(8)],
        num_partitions=2,
    )
    return shark


def run_queries(shark: SharkContext) -> dict[str, list]:
    return {
        name: sorted(shark.sql(text).rows)
        for name, text in QUERIES.items()
    }


def main(
    seed: int = 7,
    trace_out: str | None = None,
    event_log_out: str | None = None,
) -> int:
    print("=== fault-free run ===")
    baseline = run_queries(build_context())
    for name, rows in baseline.items():
        print(f"  {name}: {len(rows)} row(s)")

    print(f"\n=== chaos run (seed {seed}) ===")
    injector = FaultInjector(
        seed=seed,
        transient_failure_rate=0.10,
        kill_worker_id=2,
        kill_after_tasks=20,
        stragglers_per_stage=1,
        straggler_slowdown=8.0,
        corrupt_fetch_rate=0.05,
    )
    chaos = build_context(fault_injector=injector)
    if trace_out:
        chaos.enable_tracing()
    if event_log_out:
        chaos.enable_event_log(
            event_log_out, source="chaos_demo", seed=seed
        )
    chaos.engine.reset_profiles()
    chaotic = run_queries(chaos)

    retried = sum(p.retried_tasks for p in chaos.engine.profiles)
    speculative = sum(p.speculative_tasks for p in chaos.engine.profiles)
    recovered = sum(p.recovered_tasks for p in chaos.engine.profiles)
    blacklisted = sum(p.blacklisted_workers for p in chaos.engine.profiles)
    print(f"  {injector.describe()}")
    print(
        f"  engine response: {retried} retries, {speculative} speculative "
        f"copies, {recovered} lineage-recovered tasks, "
        f"{blacklisted} blacklistings"
    )
    live = len(chaos.engine.cluster.live_workers())
    print(f"  live workers after the kill: {live}/6")

    accountant = chaos.engine.memory
    evicted = int(chaos.metrics.value("blocks.evicted"))
    print(
        f"\n=== memory pressure (cap "
        f"{MEMORY_PER_WORKER_BYTES // 1024} KiB/worker) ==="
    )
    print(
        f"  pressure events: {accountant.pressure_events}, "
        f"evicted blocks: {evicted}"
    )
    print(
        f"  peak watermarks: storage "
        f"{int(accountant.peak_bytes('storage'))} B, execution "
        f"{int(accountant.peak_bytes('execution'))} B"
    )
    for owner, pool, peak in accountant.top_consumers(limit=3):
        print(f"  top consumer: {owner} [{pool}] peak {peak} B")
    print(
        f"  spills: {accountant.spill_events} event(s), "
        f"{accountant.spill_bytes} B written in "
        f"{accountant.spill_runs} run(s)"
    )
    for row in accountant.spill_rows():
        print(
            f"  spill owner {row['owner']}: {row['events']} event(s), "
            f"{row['bytes']} B in {row['runs']} run(s)"
        )

    print("\n=== verdict ===")
    divergent = [
        name for name in QUERIES if baseline[name] != chaotic[name]
    ]
    for name in QUERIES:
        status = "DIVERGED" if name in divergent else "identical"
        print(f"  {name}: {status}")
    # The 1 KiB cap exists to drive the arbitration path under chaos:
    # a run that never spilled proves nothing, and a run that leaves
    # anything behind (a ledger charge, a clamp, ...) is a bug even with
    # right answers.
    if accountant.spill_events == 0:
        print("\nFAIL: the memory cap forced no spills")
        return 1
    violations = chaos.engine.invariant_violations()
    if violations:
        print("\nFAIL: " + "; ".join(violations))
        return 1

    if trace_out:
        chaos.trace.write_chrome_trace(
            trace_out, metadata={"demo": "chaos", "seed": seed}
        )
        print(
            f"\nwrote {len(chaos.trace.spans)} spans / "
            f"{len(chaos.trace.events)} events to {trace_out}"
        )
    if event_log_out:
        logged = chaos.engine.event_log.queries_logged
        chaos.close_event_log()
        print(
            f"wrote {logged} query records to {event_log_out} "
            f"(python -m repro.obs.history {event_log_out})"
        )

    if divergent:
        print(f"\nFAIL: results diverged under faults: {divergent}")
        return 1
    print("\nOK: every query returned results identical to the "
          "fault-free run")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write the chaos run's Chrome-trace JSON here",
    )
    parser.add_argument(
        "--event-log-out",
        default=None,
        help="write the chaos run's persistent event log here "
        "(inspect with python -m repro.obs.history)",
    )
    args = parser.parse_args()
    sys.exit(
        main(
            seed=args.seed,
            trace_out=args.trace_out,
            event_log_out=args.event_log_out,
        )
    )
