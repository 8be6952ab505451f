"""History store: load persisted event logs and answer questions.

``python -m repro.obs.history <file-or-dir>`` loads every event log
(``*.jsonl`` / ``*.jsonl.gz``, including flight-recorder dump files)
under a path and renders a report: per-query status and simulated
seconds, per-worker utilization over the run, shuffle-skew and
cache-churn summaries, and — per query — the EXPLAIN ANALYZE text and
timeline rebuilt from its record.  The same loader backs the shell's
``.history`` dot-command and the query doctor.

Reconstruction is exact: a loaded :class:`~repro.obs.record.QueryRecord`
equals the one the writer was given — its ``profiles`` are
:class:`~repro.engine.metrics.QueryProfile` objects rebuilt field for
field — and the ``header``'s cluster geometry lets
:meth:`QueryRecord.analyze` recompute the same simulated seconds the
writer recorded.
"""

from __future__ import annotations

import argparse
import glob as globlib
import os
import sys
from typing import Any, Optional

from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.obs.analyze import render_query
from repro.obs.events import (
    EventLogSchemaError,
    RECORD_LISTS,
    SCALAR_RECORDS,
    SCHEMA_VERSION,
    profile_from_record,
    read_event_log,
)
from repro.obs.metrics import cache_ratios
from repro.obs.planquality import (
    DEFAULT_Q_ERROR_THRESHOLD,
    audit,
    format_profile_line,
    heavy_keys_text,
)
from repro.obs.record import QueryRecord

#: Log-envelope keys the loader drops from a list-shaped record; the
#: timeline mixes spans and instants, so its entries keep ``type``.
_ENVELOPE = ("seq", "query_id", "type")
_TIMELINE_ENVELOPE = ("seq", "query_id")


class Report:
    """The lines of one report, in text or markdown — the one place the
    two forms differ."""

    def __init__(self, markdown: bool, title: str) -> None:
        self.markdown = markdown
        self.lines = [f"# {title}" if markdown else title]

    def section(self, title: str) -> None:
        self.lines.append("")
        self.lines.append(
            f"## {title}" if self.markdown else f"== {title} =="
        )

    def add(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines)


def count_queries(count: int, qualifier: str = "") -> str:
    """``1 query`` / ``3 paired queries``."""
    return f"{count} {qualifier}quer{'y' if count == 1 else 'ies'}"


class HistoryStore:
    """Event logs loaded from disk, grouped per query."""

    def __init__(self) -> None:
        self.queries: list[QueryRecord] = []
        #: Standalone flight dumps not attributable to a logged query.
        self.flight_dumps: list[dict] = []
        self.files: list[str] = []

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> "HistoryStore":
        """Load one file, or every ``*.jsonl`` / ``*.jsonl.gz`` under a
        directory (sorted, so reports are deterministic)."""
        store = cls()
        path = str(path)
        if os.path.isdir(path):
            names = sorted(
                globlib.glob(os.path.join(path, "**", "*.jsonl*"),
                             recursive=True)
            )
        else:
            names = [path]
        if not names:
            raise FileNotFoundError(f"no event logs under {path}")
        for name in names:
            store.load_file(name)
        return store

    def load_file(self, path) -> None:
        records = read_event_log(path)
        self.files.append(str(path))
        header: dict = {}
        by_id: dict[str, QueryRecord] = {}
        #: (query id, job id[, stage id]) -> the profile object that the
        #: following stage / task records attach to.
        parents: dict[tuple, Any] = {}

        def query(query_id: str) -> QueryRecord:
            record = by_id.get(query_id)
            if record is None:
                record = by_id[query_id] = QueryRecord(
                    query_id=query_id, source=str(path)
                )
            return record

        def parent(*key):
            try:
                return parents[key]
            except KeyError:
                raise EventLogSchemaError(
                    f"{path}: a stage or task record of {key} precedes "
                    f"the record it belongs to"
                ) from None

        for record in records:
            kind = record["type"]
            if kind == "header":
                header = record
                if record.get("version", 0) > SCHEMA_VERSION:
                    raise EventLogSchemaError(
                        f"{path}: event-log schema version "
                        f"{record.get('version')} is newer than this "
                        f"reader ({SCHEMA_VERSION})"
                    )
                continue
            if kind == "flight_dump":
                query_id = record.get("query_id")
                if query_id is None:
                    self.flight_dumps.append(record)
                    continue
                target = query(query_id)
                if not target.timeline and target.status == "unknown":
                    target.flight_only = True
                    target.name = query_id
                    target.status = record.get("reason", "unknown")
                target.timeline.extend(record["events"])
                continue
            query_id = record["query_id"]
            target = query(query_id)
            if kind in RECORD_LISTS:
                attribute = RECORD_LISTS[kind]
                dropped = (
                    _TIMELINE_ENVELOPE
                    if attribute == "timeline"
                    else _ENVELOPE
                )
                getattr(target, attribute).append(
                    {
                        key: value
                        for key, value in record.items()
                        if key not in dropped
                    }
                )
            elif kind in SCALAR_RECORDS:
                if kind == "query_begin":
                    target.flight_only = False
                    if target.status == "unknown":
                        target.status = "incomplete"
                for key, attribute in SCALAR_RECORDS[kind].items():
                    if key in record:
                        setattr(target, attribute, record[key])
            elif kind == "operator_modes":
                target.operator_modes = [
                    (operator, mode)
                    for operator, mode in record["modes"]
                ]
            elif kind == "job":
                job = profile_from_record(QueryProfile, record)
                parents[query_id, job.job_id] = job
                target.profiles.append(job)
            elif kind == "stage":
                stage = profile_from_record(StageProfile, record)
                job_key = (query_id, record["job_id"])
                parents[(*job_key, stage.stage_id)] = stage
                parent(*job_key).stages.append(stage)
            elif kind == "task":
                parent(
                    query_id, record["job_id"], record["stage_id"]
                ).tasks.append(profile_from_record(TaskMetrics, record))
            elif kind == "counters":
                target.counters.update(record["deltas"])
        for record in by_id.values():
            record.header = header
        self.queries.extend(by_id.values())

    # ------------------------------------------------------------------
    # Lookup and aggregation
    # ------------------------------------------------------------------
    def query(self, key: str) -> QueryRecord:
        """By query_id first, then by name (first match)."""
        for record in self.queries:
            if record.query_id == key:
                return record
        for record in self.queries:
            if record.name == key:
                return record
        raise KeyError(f"no query {key!r} in history")

    def worker_utilization(self) -> list[dict]:
        """Per worker lane, busy seconds vs the lane's capacity over the
        whole history: the span each log file's timelines cover (last
        end - first start) times that file's cores per worker, summed
        over files."""
        busy: dict[Any, float] = {}
        covered: dict[str, tuple[float, float, int]] = {}
        for record in self.queries:
            for lane, seconds in record.worker_busy_seconds().items():
                busy[lane] = busy.get(lane, 0.0) + seconds
            bounds = record.time_bounds()
            if bounds is not None:
                first, last, __ = covered.get(
                    record.source, (*bounds, 0)
                )
                covered[record.source] = (
                    min(first, bounds[0]),
                    max(last, bounds[1]),
                    record.header.get("cores_per_worker", 1),
                )
        capacity = sum(
            (last - first) * cores
            for first, last, cores in covered.values()
        )
        return [
            {
                "lane": lane,
                "busy_seconds": seconds,
                "utilization": (seconds / capacity) if capacity else 0.0,
            }
            for lane, seconds in sorted(
                busy.items(), key=lambda item: str(item[0])
            )
        ]

    def cache_churn(self) -> dict[str, float]:
        """Cache/eviction counter totals across all logged queries,
        plus the derived hit/eviction ratio gauges (suffixed
        ``_ratio``) recomputed from those totals."""
        totals: dict[str, float] = {}
        for record in self.queries:
            for name, value in record.counters.items():
                if name.startswith(
                    ("cache.", "blocks.", "memory.", "sqlcache.")
                ):
                    totals[name] = totals.get(name, 0.0) + value
        totals.update(cache_ratios(lambda name: totals.get(name, 0.0)))
        return dict(sorted(totals.items()))

    # ------------------------------------------------------------------
    # Memory watermarks (schema v2)
    # ------------------------------------------------------------------
    def memory_timeline(self) -> list[dict]:
        """Chronological per-(worker, pool) pressure timeline rebuilt
        from persisted ``memory_watermark`` records."""
        rows = [
            {
                "query_id": record.query_id,
                "ts": record.ended,
                "used_bytes": 0,
                **row,
            }
            for record in self.queries
            for row in record.memory
        ]
        rows.sort(
            key=lambda row: (
                row["ts"],
                str(row["query_id"]),
                str(row["worker"]),
                row["pool"],
            )
        )
        return rows

    def memory_peaks(self) -> dict[tuple, int]:
        """(worker, pool) -> max peak bytes over the whole history;
        equals the live accountant's ledger peaks exactly."""
        peaks: dict[tuple, int] = {}
        for record in self.queries:
            for row in record.memory:
                key = (row["worker"], row["pool"])
                peaks[key] = max(
                    peaks.get(key, 0), int(row["peak_bytes"])
                )
        return peaks

    def memory_top_consumers(self, limit: int = 10) -> list[tuple]:
        """[(owner, pool, peak bytes)] ranked by the largest watermark
        any single owner reached on any worker."""
        merged: dict[tuple, int] = {}
        for record in self.queries:
            for row in record.memory:
                for owner, peak in (row.get("owners") or {}).items():
                    key = (owner, row["pool"])
                    merged[key] = max(merged.get(key, 0), int(peak))
        ranked = sorted(
            merged.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (owner, pool, peak)
            for (owner, pool), peak in ranked[:limit]
        ]

    def memory_pressure_events(self) -> int:
        return int(
            sum(
                record.counters.get("memory.pressure.events", 0.0)
                for record in self.queries
            )
        )

    def memory_spills(self) -> list[dict]:
        """Per-owner spill totals merged over every logged query
        (``memory_spill`` records, schema v3)."""
        merged: dict[str, dict[str, int]] = {}
        for record in self.queries:
            for row in record.spills:
                totals = merged.setdefault(
                    row["owner"], {"events": 0, "bytes": 0, "runs": 0}
                )
                totals["events"] += int(row["events"])
                totals["bytes"] += int(row["bytes"])
                totals["runs"] += int(row["runs"])
        return [
            {"owner": owner, **totals}
            for owner, totals in sorted(merged.items())
        ]

    def memory_report(self, markdown: bool = False) -> str:
        """Per-worker pressure timeline + top consumers."""
        timeline = self.memory_timeline()
        report = Report(
            markdown,
            f"memory report: {len(timeline)} watermark row(s) from "
            f"{count_queries(len(self.queries))}",
        )
        if not timeline:
            report.add(
                "  (no memory_watermark records — log predates "
                "schema v2 or no query reserved memory)"
            )
            return report.text()
        report.section("per-worker pressure timeline")
        for row in timeline:
            report.add(
                f"  {row['ts']:9.3f}s {_lane(row['worker']):<10} "
                f"{row['pool']:<9} used {row['used_bytes']}B, "
                f"peak {row['peak_bytes']}B  [{row['query_id']}]"
            )
        pressure = self.memory_pressure_events()
        if pressure:
            report.add(f"  pressure events: {pressure}")
        spills = self.memory_spills()
        if spills:
            report.section("spill report (per owner)")
            for row in spills:
                report.add(
                    f"  {row['owner']}: {row['events']} event(s), "
                    f"{row['bytes']}B to disk in {row['runs']} run(s)"
                )
        consumers = self.memory_top_consumers()
        if consumers:
            report.section("top consumers (peak bytes)")
            for owner, pool, peak in consumers:
                report.add(f"  {owner} [{pool}]: {peak}B")
        return report.text()

    # ------------------------------------------------------------------
    # Serving (schema v4)
    # ------------------------------------------------------------------
    def tenant_rows(self) -> list[dict]:
        """Per-tenant utilization from v4 query records: query counts by
        outcome (every query lands in exactly one of ``completed`` /
        ``shed`` / ``cancelled`` — by the user or by its deadline — /
        ``failed``), charged simulated seconds, end-to-end latency."""
        merged: dict[str, dict[str, float]] = {}
        for record in self.queries:
            if record.tenant is None:
                continue
            row = merged.setdefault(
                record.tenant,
                {
                    "queries": 0,
                    "completed": 0,
                    "shed": 0,
                    "cancelled": 0,
                    "failed": 0,
                    "sim_seconds": 0.0,
                    "latency_seconds": 0.0,
                },
            )
            row["queries"] += 1
            if record.status == "ok":
                row["completed"] += 1
                row["latency_seconds"] += max(
                    record.ended - record.started, 0.0
                )
            elif record.status == "shed":
                row["shed"] += 1
            elif record.status in ("cancelled", "deadline"):
                row["cancelled"] += 1
            else:
                row["failed"] += 1
            row["sim_seconds"] += record.sim_seconds
        return [
            {"tenant": tenant, **row}
            for tenant, row in sorted(merged.items())
        ]

    def tier_latencies(self) -> dict[str, list[float]]:
        """priority tier -> sorted end-to-end latencies (simulated
        seconds, ``ended - started``) of its completed queries."""
        tiers: dict[str, list[float]] = {}
        for record in self.queries:
            if record.priority is None or record.status != "ok":
                continue
            tiers.setdefault(record.priority, []).append(
                max(record.ended - record.started, 0.0)
            )
        for values in tiers.values():
            values.sort()
        return tiers

    def tenant_report(self, markdown: bool = False) -> str:
        """Per-tenant utilization + per-tier latency percentiles."""
        rows = self.tenant_rows()
        report = Report(
            markdown,
            f"tenant report: {len(rows)} tenant(s) across "
            f"{count_queries(len(self.queries))}",
        )
        if not rows:
            report.add(
                "  (no tenant-tagged queries — log predates schema v4 "
                "or queries ran outside a SqlServer)"
            )
            return report.text()
        report.section("per-tenant utilization")
        for row in rows:
            mean = (
                row["latency_seconds"] / row["completed"]
                if row["completed"]
                else 0.0
            )
            report.add(
                f"  {row['tenant']:<12} {row['queries']:4d} queries "
                f"({row['completed']} ok, {row['shed']} shed, "
                f"{row['cancelled']} cancelled, "
                f"{row['failed']} failed), "
                f"{row['sim_seconds']:8.3f} sim-s charged, "
                f"mean latency {mean:.3f}s"
            )
        tiers = self.tier_latencies()
        if tiers:
            report.section("per-tier latency (completed)")
            for tier, values in sorted(tiers.items()):
                report.add(
                    f"  {tier:<12} n={len(values):4d}  "
                    f"p50 {percentile(values, 50.0):.3f}s  "
                    f"p95 {percentile(values, 95.0):.3f}s  "
                    f"p99 {percentile(values, 99.0):.3f}s"
                )
        sheds: dict[str, int] = {}
        for record in self.queries:
            if record.shed_reason:
                sheds[record.shed_reason] = (
                    sheds.get(record.shed_reason, 0) + 1
                )
        if sheds:
            report.section("shed reasons")
            for reason, count in sorted(sheds.items()):
                report.add(f"  {reason}: {count}")
        return report.text()

    def cache_report(self, markdown: bool = False) -> str:
        """Per-layer SQL cache hit/miss totals from v5 ``cache_lookup``
        records, plus the ``sqlcache.*`` counter deltas."""
        layers: dict[str, dict[str, int]] = {}
        probed_queries = 0
        for record in self.queries:
            if record.cache_lookups:
                probed_queries += 1
            for row in record.cache_lookups:
                layer = layers.setdefault(
                    row["layer"], {"hit": 0, "miss": 0}
                )
                layer[row["outcome"]] = layer.get(row["outcome"], 0) + 1
        report = Report(
            markdown,
            f"sql cache report: "
            f"{count_queries(probed_queries, 'probed ')} of "
            f"{len(self.queries)}",
        )
        if not layers:
            report.add(
                "  (no cache_lookup records — log predates schema v5 "
                "or the caching stack was disabled)"
            )
            return report.text()
        report.section("per-layer lookups")
        # "fragment": rows of logs written while the SQL cache had a
        # scan-side layer (before PR 24); nothing writes them now.
        for layer in ("plan", "result", "fragment"):
            row = layers.get(layer)
            if row is None:
                continue
            total = row["hit"] + row["miss"]
            ratio = row["hit"] / total if total else 0.0
            report.add(
                f"  {layer:<9} {total:5d} lookups, {row['hit']:5d} hits "
                f"({100.0 * ratio:.0f}%)"
            )
        totals: dict[str, float] = {}
        for record in self.queries:
            for name, value in record.counters.items():
                if name.startswith("sqlcache."):
                    totals[name] = totals.get(name, 0.0) + value
        if totals:
            report.section("sqlcache counters")
            for name, value in sorted(totals.items()):
                report.add(f"  {name} = {value:g}")
        return report.text()

    # ------------------------------------------------------------------
    # Plan quality (schema v6)
    # ------------------------------------------------------------------
    def operator_profiles(self) -> list[dict]:
        """Every ``operator_profile`` record across all logged queries,
        writer order."""
        return [
            row
            for record in self.queries
            for row in record.operator_profiles
        ]

    def cardinality_priors(self) -> list[dict]:
        """Observed output cardinalities aggregated across runs, keyed
        by (operator, detail) — e.g. every run of
        ``filter``/``(L_QUANTITY < 24)`` contributes one observation.

        This is the designed hand-off for PDE v2's learned priors: a
        future optimizer can seed its estimates from ``mean_rows``
        instead of the default selectivity guesses.
        """
        merged: dict[tuple[str, str], dict] = {}
        for row in self.operator_profiles():
            actual = row.get("actual_rows")
            if actual is None:
                continue
            actual = int(actual)
            key = (row["operator"], row.get("detail", ""))
            prior = merged.get(key)
            if prior is None:
                prior = merged[key] = {
                    "operator": key[0],
                    "detail": key[1],
                    "observations": 0,
                    "total_rows": 0,
                    "min_rows": actual,
                    "max_rows": actual,
                }
            prior["observations"] += 1
            prior["total_rows"] += actual
            prior["min_rows"] = min(prior["min_rows"], actual)
            prior["max_rows"] = max(prior["max_rows"], actual)
        out = []
        for key in sorted(merged):
            prior = merged[key]
            prior["mean_rows"] = (
                prior["total_rows"] / prior["observations"]
            )
            out.append(prior)
        return out

    def plan_quality_report(
        self,
        threshold: float = DEFAULT_Q_ERROR_THRESHOLD,
        markdown: bool = False,
    ) -> str:
        """Per-query misestimate audit + shuffle-skew records +
        cross-run cardinality priors (schema v6)."""
        profiled = [
            record for record in self.queries if record.operator_profiles
        ]
        report = Report(
            markdown,
            f"plan quality report: "
            f"{count_queries(len(profiled), 'profiled ')} of "
            f"{len(self.queries)}",
        )
        if not profiled:
            report.add(
                "  (no operator_profile records — log predates "
                "schema v6)"
            )
            return report.text()
        report.section(f"misestimates (q-error > {threshold:g})")
        any_flagged = False
        for record in profiled:
            flagged = audit(record.operator_profiles, threshold)
            for row in flagged:
                any_flagged = True
                report.add(
                    f"  {record.query_id}: "
                    + format_profile_line(row, threshold)
                )
        if not any_flagged:
            report.add("  (none)")
        skewed = [
            (record, row)
            for record in self.queries
            for row in record.skew_records
        ]
        if skewed:
            report.section("shuffle skew records")
            for record, row in skewed:
                heavy = heavy_keys_text(row)
                report.add(
                    f"  {record.query_id} shuffle {row['shuffle_id']}: "
                    f"{row['num_reduces']} reduces, "
                    f"rows max/mean x{row.get('row_skew', 0.0):.2f}"
                    + (f", heavy keys: {heavy}" if heavy else "")
                )
        priors = self.cardinality_priors()
        if priors:
            report.section("cardinality priors (for PDE v2)")
            for prior in priors:
                label = prior["operator"]
                if prior["detail"]:
                    label += f" {prior['detail']}"
                report.add(
                    f"  {label}: n={prior['observations']} "
                    f"mean {prior['mean_rows']:.1f} rows "
                    f"[{prior['min_rows']}, {prior['max_rows']}]"
                )
        return report.text()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def report(
        self, markdown: bool = False, query: Optional[str] = None
    ) -> str:
        if query is not None:
            return self._query_report(self.query(query), markdown)
        report = Report(
            markdown,
            f"query history: {count_queries(len(self.queries))} from "
            f"{len(self.files)} log file(s)",
        )
        report.section("queries")
        if markdown:
            report.add("| query | kind | status | sim-s | tasks |")
            report.add("|---|---|---|---|---|")
        for record in self.queries:
            label = record.name or record.query_id
            if markdown:
                report.add(
                    f"| {record.query_id}: {_short(label)} "
                    f"| {record.kind} | {record.status} "
                    f"| {record.sim_seconds:.3f} "
                    f"| {record.num_tasks} |"
                )
            else:
                report.add(
                    f"  {record.query_id} [{record.kind}] "
                    f"{record.status:<9} {record.sim_seconds:8.3f} sim-s"
                    f"  {record.num_tasks:3d} tasks  {_short(label)}"
                )
            if record.flight_only:
                report.add(
                    ("  " if not markdown else "")
                    + f"    (flight-recorder dump only: "
                    f"{len(record.timeline)} events)"
                )
        utilization = self.worker_utilization()
        if utilization:
            report.section("worker utilization")
            for row in utilization:
                report.add(
                    f"  {_lane(row['lane']):<10} "
                    f"busy {row['busy_seconds']:.3f}s "
                    f"({row['utilization'] * 100.0:.0f}%)"
                )
        skew = [
            (record, entry)
            for record in self.queries
            for entry in record.stage_write_skew()
        ]
        if skew:
            report.section("shuffle skew (map stages)")
            for record, entry in skew:
                report.add(
                    f"  {record.query_id} job {entry['job_id']} "
                    f"stage {entry['stage_id']} "
                    f"({entry['name']}): max {entry['max_bytes']}B / "
                    f"mean {entry['mean_bytes']:.0f}B "
                    f"= x{entry['skew']:.2f}"
                )
        churn = self.cache_churn()
        if churn:
            report.section("cache churn")
            for name, value in churn.items():
                report.add(f"  {name} = {value:g}")
        peaks = self.memory_peaks()
        if peaks:
            report.section("memory peaks")
            for (worker, pool), peak in sorted(
                peaks.items(), key=lambda item: (str(item[0][0]), item[0][1])
            ):
                report.add(
                    f"  {_lane(worker):<10} {pool:<9} peak {peak}B"
                )
            report.add(
                "  (run `python -m repro.obs.history <path> memory` "
                "for the full pressure timeline)"
            )
        if self.flight_dumps:
            report.section(
                f"unattributed flight dumps: {len(self.flight_dumps)}"
            )
        return report.text()

    def _query_report(
        self, record: QueryRecord, markdown: bool
    ) -> str:
        """One query: a header, the EXPLAIN ANALYZE text of its record
        (if it ran), its counter deltas and its timeline."""
        report = Report(
            markdown,
            f"query {record.query_id} [{record.kind}] {record.status}",
        )
        if record.name and record.name != record.query_id:
            report.add(f"  name: {_short(record.name, 120)}")
        if record.error:
            report.add(f"  error: {record.error}")
        report.add(
            f"  simulated seconds: {record.sim_seconds:.3f} "
            f"(clock {record.started:.3f} -> {record.ended:.3f})"
        )
        if record.profiles or record.result_rows is not None:
            fence = ["```"] if markdown else []
            report.lines += [
                "",
                *fence,
                *render_query(record).splitlines(),
                *fence,
            ]
        if record.counters:
            report.section("counter deltas")
            for name, value in sorted(record.counters.items()):
                report.add(f"  {name} = {value:g}")
        if record.timeline:
            report.section(
                "timeline (flight-recorder partial)"
                if record.flight_only
                else "timeline"
            )
            for entry in _timeline_sorted(record.timeline)[-60:]:
                if entry["type"] == "span":
                    report.add(
                        f"  {entry['start']:9.3f}s "
                        f"{_lane(entry.get('lane', '?')):<10} "
                        f"{entry['name']} "
                        f"(+{entry['end'] - entry['start']:.3f}s)"
                    )
                else:
                    report.add(
                        f"  {entry.get('ts', 0.0):9.3f}s "
                        f"{_lane(entry.get('lane', '?')):<10} "
                        f"* {entry['name']}"
                    )
        return report.text()

    def export_perfetto(self, key: str, path) -> None:
        """Write one query's timeline as Chrome-trace JSON."""
        record = self.query(key)
        trace = record.to_query_trace()
        trace.write_chrome_trace(
            path,
            metadata={
                "query_id": record.query_id,
                "name": record.name,
                "status": record.status,
                "source": record.source,
            },
        )


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile over an ascending-sorted list (0 when
    empty) — deterministic, no interpolation.

    Thin wrapper over the canonical helper in ``repro.obs.metrics``
    (this module keeps the 0–100 percentile scale its callers use)."""
    from repro.obs.metrics import percentiles_of

    return percentiles_of(list(sorted_values), (pct / 100.0,))[0]


def _timeline_sorted(timeline: list[dict]) -> list[dict]:
    return sorted(
        timeline,
        key=lambda entry: entry.get("start", entry.get("ts", 0.0)),
    )


def _short(text: str, limit: int = 60) -> str:
    flat = " ".join(str(text).split())
    return flat if len(flat) <= limit else flat[: limit - 3] + "..."


def _lane(lane) -> str:
    if isinstance(lane, int):
        return f"worker {lane}"
    return str(lane)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description=(
            "Load persisted query event logs and render a report."
        ),
    )
    parser.add_argument(
        "path", help="event-log file or directory of *.jsonl(.gz)"
    )
    parser.add_argument(
        "section",
        nargs="?",
        choices=["memory", "tenants", "cache", "quality"],
        help=(
            "optional focused report: 'memory' renders the per-worker "
            "pressure timeline and top consumers from memory_watermark "
            "records; 'tenants' renders per-tenant utilization and "
            "per-tier latency percentiles from v4 serving fields; "
            "'cache' renders per-layer SQL cache hit ratios from v5 "
            "cache_lookup records; 'quality' renders the plan-quality "
            "audit, shuffle-skew records, and cross-run cardinality "
            "priors from v6 records"
        ),
    )
    parser.add_argument(
        "--query",
        help="report a single query (by query_id or name)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="Markdown output"
    )
    parser.add_argument(
        "--perfetto-out",
        help=(
            "directory to write per-query Chrome-trace JSON exports "
            "(or, with --query, used for that query only)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        store = HistoryStore.load(args.path)
    except (FileNotFoundError, EventLogSchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sections = {
        "memory": store.memory_report,
        "tenants": store.tenant_report,
        "cache": store.cache_report,
        "quality": store.plan_quality_report,
    }
    try:
        if args.section:
            print(sections[args.section](markdown=args.markdown))
        else:
            print(store.report(markdown=args.markdown, query=args.query))
    except BrokenPipeError:  # `| head` closed stdout; not an error
        return 0
    if args.perfetto_out:
        os.makedirs(args.perfetto_out, exist_ok=True)
        targets = (
            [store.query(args.query)]
            if args.query
            else [q for q in store.queries if q.timeline]
        )
        for record in targets:
            out = os.path.join(
                args.perfetto_out, f"{record.query_id}.trace.json"
            )
            store.export_perfetto(record.query_id, out)
            print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
