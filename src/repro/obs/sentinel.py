"""Perf-regression sentinel: compare a fresh run against a baseline.

``python -m repro.obs.sentinel --baseline BENCH_baseline.json`` runs a
small fixed suite — the Figure 7 aggregation micro-benchmarks plus
TPC-H Q1/Q3/Q6 — on a fresh virtual cluster, measures each query's
simulated seconds and key counters, and compares them against the
committed baseline.  Any query whose simulated seconds regress beyond
``--threshold`` (default 25%) fails the run (nonzero exit) with a
per-stage attribution line, e.g.::

    REGRESSION Q1 +96% sim-seconds (0.034 -> 0.067):
      stage 1 (partial_aggregate) +0.031 sim-s, rows/task x1.0,
      shuffle write bytes x1.0

Each measurement is read off the query's event-log record (the log is
``--event-log-out``, or a scratch file).  When any query regresses, the
sentinel also runs the suite under the default configuration into a
second scratch log and hands both logs to the query doctor
(:mod:`repro.obs.doctor`), so the failure report ends
with ranked root causes — e.g. a ``--memory-cap 16384`` run is
attributed to ``spill-appeared`` rather than just "a stage got slower".

Everything is measured on the simulated clock, so the baseline is exact
and machine-independent: an unchanged engine reproduces it bit-for-bit,
and CI can gate on it without noise margins.  ``--write-baseline``
(re)seeds the baseline after an intentional performance change;
``--memory-cap 16384 --threshold 0.25`` demonstrates a deliberate
regression: the cap forces spills and evictions the uncapped baseline
never paid for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional

BASELINE_VERSION = 1

#: Suite geometry: small enough for CI, large enough that per-record
#: CPU cost dominates the fixed per-task launch overhead — otherwise a
#: CPU-side regression (like losing a kernel) hides inside the
#: overhead and the sentinel can't see it.  Two fat partitions per big
#: table give ~50K rows per task: the CPU term is ~2x the 5 ms launch
#: overhead, so a 10x per-record slowdown moves total sim-seconds well
#: past the 25% gate.
WORKERS = 4
CORES_PER_WORKER = 2
LINEITEM_ROWS = 100_000
ORDERS_ROWS = 25_000
CUSTOMER_ROWS = 2_500
LOAD_PARTITIONS = 2

#: Counters recorded per query (deltas across its execution).
TRACKED_COUNTERS = (
    "tasks.launched",
    "stages.run",
    "shuffle.write.bytes",
    "shuffle.read.bytes",
    "batch.rows",
)


def suite_queries() -> dict[str, str]:
    """Query name -> SQL text, in fixed report order."""
    from repro.workloads import tpch

    queries = {
        f"agg_{key}": text
        for key, text in tpch.AGGREGATION_QUERIES.items()
    }
    queries.update(tpch.TPCH_QUERIES)
    return queries


def build_warehouse(memory_per_worker_bytes: Optional[int] = None):
    """A fresh SharkContext with the suite's cached TPC-H tables."""
    from repro.core.context import SharkContext
    from repro.workloads import tpch

    shark = SharkContext(
        num_workers=WORKERS,
        cores_per_worker=CORES_PER_WORKER,
        memory_per_worker_bytes=memory_per_worker_bytes,
    )
    for name, data, partitions in (
        ("lineitem", tpch.generate_lineitem(LINEITEM_ROWS), LOAD_PARTITIONS),
        ("orders", tpch.generate_orders(ORDERS_ROWS), LOAD_PARTITIONS),
        ("customer", tpch.generate_customer(CUSTOMER_ROWS), 1),
    ):
        shark.create_table(name, data.schema, cached=True)
        shark.load_rows(name, data.rows, num_partitions=partitions)
    return shark


def run_passes(shark, log_path, passes: int = 1) -> list[dict[str, dict]]:
    """Execute the suite ``passes`` times into an event log at
    ``log_path``; returns each pass's per-query measurements, read off
    the queries' records in that log."""
    from repro.obs.history import HistoryStore

    queries = suite_queries()
    shark.enable_event_log(log_path, source="sentinel")
    try:
        for __ in range(passes):
            for text in queries.values():
                shark.sql(text)
    finally:
        shark.close_event_log()
    records = HistoryStore.load(log_path).queries
    return [
        {
            name: {
                "sim_seconds": record.sim_seconds,
                "result_rows": record.result_rows,
                "counters": {
                    key: record.counters.get(key, 0.0)
                    for key in TRACKED_COUNTERS
                },
                "stages": [
                    {
                        key: value
                        for key, value in stage.items()
                        if key != "job_id"
                    }
                    for stage in record.stage_sim
                ],
            }
            for name, record in zip(queries, records[start:])
        }
        for start in range(0, passes * len(queries), len(queries))
    ]


def run_suite(shark) -> dict[str, dict]:
    """One pass of the suite through a scratch event log."""
    with tempfile.TemporaryDirectory() as scratch:
        return run_passes(shark, os.path.join(scratch, "suite.jsonl"))[0]


def baseline_document(queries: dict[str, dict]) -> dict:
    return {
        "version": BASELINE_VERSION,
        "config": {
            "workers": WORKERS,
            "cores_per_worker": CORES_PER_WORKER,
            "lineitem_rows": LINEITEM_ROWS,
            "orders_rows": ORDERS_ROWS,
            "customer_rows": CUSTOMER_ROWS,
        },
        "queries": queries,
    }


def _ratio(current: float, base: float) -> float:
    if base <= 0:
        return 1.0 if current <= 0 else float("inf")
    return current / base


def _attribution(base_entry: dict, entry: dict) -> str:
    """The stage that gained the most simulated time, with the volume
    ratios that explain it (stages matched by position)."""
    pairs = list(zip(base_entry.get("stages", []), entry["stages"]))
    if not pairs:
        return "no stage data to attribute"
    worst = max(
        pairs,
        key=lambda pair: pair[1]["sim_seconds"] - pair[0]["sim_seconds"],
    )
    base_stage, stage = worst
    details = [
        f"stage {stage['stage_id']} ({stage['name']}) "
        f"+{stage['sim_seconds'] - base_stage['sim_seconds']:.3f} sim-s"
    ]
    for label, key in (
        ("rows in", "records_in"),
        ("shuffle write bytes", "shuffle_write_bytes"),
        ("shuffle read bytes", "shuffle_read_bytes"),
        ("tasks", "num_tasks"),
    ):
        base_value = base_stage.get(key, 0)
        value = stage.get(key, 0)
        if base_value or value:
            details.append(
                f"{label} x{_ratio(value, base_value):.1f}"
            )
    return ", ".join(details)


def doctor_attribution(current_log, threshold, metrics) -> list[str]:
    """Diff a default-config reference run against this run's event log
    with the query doctor; returns the report lines to append.

    The reference suite is re-run into a scratch event log (cheap: the
    suite is small and the clock is simulated).  Deterministic by
    construction — both logs are pure functions of engine config.
    """
    from repro.obs import doctor
    from repro.obs.history import _short, count_queries

    with tempfile.TemporaryDirectory() as scratch:
        reference_log = os.path.join(scratch, "reference.jsonl")
        run_passes(build_warehouse(), reference_log)
        report = doctor.diagnose_logs(
            reference_log,
            current_log,
            regression_threshold=threshold,
            metrics=metrics,
        )
    lines = ["== query doctor (default-config reference vs this run) =="]
    for diagnosis in report.regressed():
        lines.append(
            f"{_short(diagnosis.name)}: "
            f"{diagnosis.baseline_seconds:.3f} -> "
            f"{diagnosis.current_seconds:.3f} sim-s "
            f"({diagnosis.slowdown:+.0%})"
        )
        for rank, finding in enumerate(diagnosis.findings[:3], start=1):
            lines.append(
                f"  {rank}. [{finding.category}] {finding.summary}"
            )
    top = report.top_cause()
    if top is not None:
        lines.append(
            f"top root cause across corpus: {top[0]} "
            f"({count_queries(top[1])})"
        )
    return lines


def compare(
    baseline: dict, current: dict[str, dict], threshold: float
) -> tuple[list[str], list[str]]:
    """Returns (regression lines, info lines)."""
    regressions: list[str] = []
    info: list[str] = []
    base_queries = baseline.get("queries", {})
    for name, base_entry in base_queries.items():
        entry = current.get(name)
        if entry is None:
            regressions.append(
                f"MISSING {name}: query in baseline but not in this run"
            )
            continue
        base_s = base_entry["sim_seconds"]
        cur_s = entry["sim_seconds"]
        ratio = _ratio(cur_s, base_s)
        delta_pct = (ratio - 1.0) * 100.0
        line = (
            f"{name}: {base_s:.3f} -> {cur_s:.3f} sim-s "
            f"({delta_pct:+.0f}%)"
        )
        if ratio > 1.0 + threshold:
            regressions.append(
                f"REGRESSION {name} {delta_pct:+.0f}% sim-seconds "
                f"({base_s:.3f} -> {cur_s:.3f}): "
                + _attribution(base_entry, entry)
            )
        elif ratio < 1.0 - threshold:
            info.append(f"IMPROVED {line}")
        else:
            info.append(f"ok {line}")
    for name in current:
        if name not in base_queries:
            info.append(f"new {name}: not in baseline (no gate)")
    return regressions, info


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.sentinel",
        description=(
            "Run the benchmark suite and fail on simulated-seconds "
            "regressions against a committed baseline."
        ),
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_baseline.json",
        help="baseline JSON path (default: BENCH_baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative sim-seconds regression that fails (default 0.25)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the measured suite as the new baseline and exit 0",
    )
    parser.add_argument(
        "--memory-cap",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "cap memory_per_worker_bytes so the suite runs through the "
            "spill path; the run must still pass the sim-seconds gate "
            "AND must actually spill (a vacuous cap fails)"
        ),
    )
    parser.add_argument(
        "--event-log-out",
        help="also stream every suite query to this event-log path",
    )
    parser.add_argument(
        "--report", help="also write the comparison report to this file"
    )
    parser.add_argument(
        "--sql-cache",
        choices=("on", "off"),
        default="off",
        help=(
            "enable the query caching stack: the cold pass must still "
            "meet the baseline (cache probes are free on the simulated "
            "clock) and a warm repeat of the suite must show a "
            "measurable sim-seconds drop vs the cold pass"
        ),
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        return _gate(
            args,
            args.event_log_out or os.path.join(scratch, "current.jsonl"),
        )


def _gate(args, log_path) -> int:
    """Run the suite into ``log_path`` and compare it with the baseline."""
    shark = build_warehouse(memory_per_worker_bytes=args.memory_cap)
    warm = None
    if args.sql_cache == "on":
        shark.enable_sql_cache()
        # Second pass over an unchanged catalog: the result cache
        # should short-circuit every suite query.
        current, warm = run_passes(shark, log_path, passes=2)
    else:
        (current,) = run_passes(shark, log_path)

    warm_lines: list[str] = []
    if warm is not None:
        cold_total = sum(e["sim_seconds"] for e in current.values())
        warm_total = sum(e["sim_seconds"] for e in warm.values())
        divergent = [
            name
            for name, entry in warm.items()
            if entry["result_rows"] != current[name]["result_rows"]
        ]
        warm_lines.append(
            f"sql cache warm repeat: {cold_total:.3f} -> "
            f"{warm_total:.3f} sim-s "
            f"(cold-cache vs warm-cache, {len(warm)} queries)"
        )
        if divergent:
            warm_lines.append(
                f"warm-cache FAILED: row-count divergence in {divergent}"
            )
        elif warm_total >= 0.5 * cold_total:
            warm_lines.append(
                "warm-cache FAILED: repeat saved less than half the "
                "cold-cache sim-seconds"
            )
        else:
            warm_lines.append(
                f"warm-cache win: {cold_total - warm_total:.3f} sim-s "
                f"saved ({100.0 * (1.0 - warm_total / cold_total):.0f}%)"
            )
        for line in warm_lines:
            print(line)
        if any("FAILED" in line for line in warm_lines):
            if args.report:
                with open(args.report, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(warm_lines) + "\n")
            return 2

    if args.memory_cap is not None:
        accountant = shark.engine.memory
        print(
            f"memory cap {args.memory_cap} B/worker: "
            f"{accountant.spill_events} spill event(s), "
            f"{accountant.spill_bytes} B written in "
            f"{accountant.spill_runs} run(s)"
        )
        if accountant.spill_events == 0:
            print(
                "error: --memory-cap forced no spills — the capped gate "
                "is vacuous; lower the cap",
                file=sys.stderr,
            )
            return 2

    if args.write_baseline:
        document = baseline_document(current)
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"wrote baseline for {len(current)} queries to "
            f"{args.baseline}"
        )
        return 0

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(
            f"error: no baseline at {args.baseline} "
            "(seed one with --write-baseline)",
            file=sys.stderr,
        )
        return 2
    if baseline.get("version") != BASELINE_VERSION:
        print(
            f"error: baseline version {baseline.get('version')!r} != "
            f"{BASELINE_VERSION}",
            file=sys.stderr,
        )
        return 2

    regressions, info = compare(baseline, current, args.threshold)
    lines = [
        f"sentinel: {len(current)} queries vs {args.baseline} "
        f"(threshold {args.threshold * 100.0:.0f}%)"
    ]
    lines.extend(f"  {line}" for line in info)
    lines.extend(f"  {line}" for line in regressions)
    lines.extend(f"  {line}" for line in warm_lines)
    if regressions:
        lines.extend(
            f"  {line}"
            for line in doctor_attribution(
                log_path, args.threshold, shark.engine.tracer.metrics
            )
        )
    lines.append(
        f"sentinel: "
        + (
            f"{len(regressions)} regression(s) FAILED"
            if regressions
            else "all queries within threshold"
        )
    )
    report = "\n".join(lines)
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
