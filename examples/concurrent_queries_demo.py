"""Concurrent queries under chaos: admission, deadlines, cancellation.

The paper positions Shark as a multi-user SQL system; this demo runs
several queries *concurrently* through the query lifecycle manager while
the fault injector fails task attempts and slows stragglers — and shows
the full lifecycle story in one run:

- one query is **cooperatively cancelled** mid-flight,
- one query **exceeds its deadline** (simulated seconds) and is killed,
- one submission is **rejected by admission control** with a typed
  error carrying a retry-after hint,
- every *surviving* query returns results byte-identical to a serial
  fault-free run.

After the drain, the demo checks the engine's cleanup invariants
(``EngineContext.invariant_violations``): among them, cancelled queries'
shuffle outputs are released and the tracer has no half-open spans.

Run with::

    python examples/concurrent_queries_demo.py --seed 11

Exits non-zero if any invariant fails (the CI chaos job relies on this).
"""

import argparse
import sys

from repro import LifecycleConfig, SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.errors import (
    AdmissionRejected,
    QueryCancelledError,
    QueryDeadlineExceeded,
)
from repro.faults import FaultInjector


SURVIVOR_QUERIES = {
    "aggregate": (
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket"
    ),
    "filter-group": (
        "SELECT day, COUNT(*) AS n FROM readings "
        "WHERE value > 40 GROUP BY day"
    ),
    "count": "SELECT COUNT(*) FROM readings",
}


def build_context(fault_injector=None) -> SharkContext:
    shark = SharkContext(
        num_workers=4, cores_per_worker=2, fault_injector=fault_injector
    )
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [(f"b{i % 8}", i % 30, float(i % 1000) / 10.0) for i in range(8_000)],
        num_partitions=8,
    )
    return shark


def main(seed: int = 11) -> int:
    print("=== serial fault-free baseline ===")
    baseline_ctx = build_context()
    baseline = {
        name: sorted(baseline_ctx.sql(text).rows)
        for name, text in SURVIVOR_QUERIES.items()
    }
    for name, rows in baseline.items():
        print(f"  {name}: {len(rows)} row(s)")

    print(f"\n=== concurrent chaos run (seed {seed}) ===")
    injector = FaultInjector(
        seed=seed,
        transient_failure_rate=0.10,
        stragglers_per_stage=1,
        straggler_slowdown=6.0,
    )
    shark = build_context(fault_injector=injector)
    shark.enable_tracing()
    lifecycle = shark.enable_lifecycle(
        LifecycleConfig(max_concurrent=4, max_queued=1)
    )

    survivors = {
        name: shark.submit_sql(text, name=name)
        for name, text in SURVIVOR_QUERIES.items()
    }
    cancelled = shark.submit_sql(
        SURVIVOR_QUERIES["aggregate"], name="cancelled", key="cancelled"
    ).cancel_after_tasks(4)
    deadlined = shark.submit_sql(
        SURVIVOR_QUERIES["filter-group"], name="deadlined", deadline_s=1e-9
    )
    rejected = None
    try:
        shark.submit_sql(SURVIVOR_QUERIES["count"], name="rejected")
    except AdmissionRejected as error:
        rejected = error
        print(
            f"  admission control: {error.name!r} rejected "
            f"({error.running} running, {error.queued} queued), "
            f"retry after ~{error.retry_after_s:.2f}s"
        )

    lifecycle.drain()
    print(f"  {injector.describe()}")
    for handle in (*survivors.values(), cancelled, deadlined):
        print(f"  {handle.describe()}")
    print(f"  {lifecycle.describe()}")

    print("\n=== verdict ===")
    failures = []
    if rejected is None:
        failures.append("expected an AdmissionRejected submission")
    if not (
        cancelled.state == "cancelled"
        and isinstance(cancelled.error, QueryCancelledError)
    ):
        failures.append(f"cancelled query ended as {cancelled.state!r}")
    if not (
        deadlined.state == "deadline"
        and isinstance(deadlined.error, QueryDeadlineExceeded)
    ):
        failures.append(f"deadlined query ended as {deadlined.state!r}")
    divergent = [
        name
        for name, handle in survivors.items()
        if handle.state != "done"
        or sorted(handle.result.rows) != baseline[name]
    ]
    failures.extend(f"survivor {name} diverged" for name in divergent)
    for name in survivors:
        status = "DIVERGED" if name in divergent else "identical to serial"
        print(f"  {name}: {status}")
    print(f"  cancelled: {cancelled.state}, deadlined: {deadlined.state}")

    violations = shark.engine.invariant_violations()
    failures.extend(violations)
    print(f"  cleanup: {len(violations)} invariant violations")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nOK: survivors identical to serial, cancellation/deadline/"
        "admission verdicts typed, cleanup invariants hold"
    )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    sys.exit(main(seed=args.seed))
