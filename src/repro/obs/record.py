"""The one record of what a query did.

A :class:`QueryRecord` states one query once — identity and outcome, its
job profiles, per-stage simulated seconds, timeline, counters, memory,
spills, cache lookups, operator profiles, skew records, plan, operator
modes, result rows — and three verbs act on it: :func:`capture` reads
it off a finished query's :class:`~repro.engine.query.QueryScope`;
:meth:`EventLogWriter.write_query <repro.obs.events.EventLogWriter.
write_query>` and :meth:`HistoryStore.load_file <repro.obs.history.
HistoryStore.load_file>` write and load it, with ``load(write(record))
== record``; :func:`repro.obs.analyze.render_query` renders it, for
EXPLAIN ANALYZE and ``history --query`` alike (DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.events import timeline_entries
from repro.obs.planquality import (
    actual_rows_from_profiles,
    build_operator_profiles,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.metrics import QueryProfile
    from repro.engine.query import QueryScope
    from repro.obs.analyze import QueryAnalysis


@dataclass
class QueryRecord:
    """Everything known about one query, live or loaded from a log.

    The list fields hold each log record's payload without its envelope
    (``seq``/``query_id``, and ``type`` except in the mixed
    ``timeline``); rows taken at query end carry that instant as ``ts``.
    """

    #: Stamped by the writer (``qNNNN``) when left None.
    query_id: Optional[str] = None
    name: str = ""
    kind: str = "sql"
    text: Optional[str] = None
    status: str = "unknown"
    error: Optional[str] = None
    started: float = 0.0
    ended: float = 0.0
    #: The list-scheduled makespan of ``profiles`` for a statement; the
    #: *charged* seconds (sum over task attempts — what deadlines and
    #: tenant budgets meter) for a lifecycle query, whose ``stage_sim``
    #: rows still carry the makespan's per-stage shares.
    sim_seconds: float = 0.0
    result_rows: Optional[int] = None
    #: Serving fields (None outside a SqlServer and on pre-v4 logs).
    tenant: Optional[str] = None
    priority: Optional[str] = None
    shed_reason: Optional[str] = None
    plan_text: Optional[str] = None
    operator_modes: list[tuple[str, str]] = field(default_factory=list)
    #: Per-operator estimated vs. actual rows with q-error (schema v6).
    operator_profiles: list[dict] = field(default_factory=list)
    #: ``span`` and ``instant`` entries (also the events of any flight
    #: dump attributed to this query).
    timeline: list[dict] = field(default_factory=list)
    #: Every job the query ran, in order.
    profiles: list["QueryProfile"] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Per-(worker, pool) watermark rows at query end (schema v2).
    memory: list[dict] = field(default_factory=list)
    #: Per-owner spill deltas this query forced (schema v3).
    spills: list[dict] = field(default_factory=list)
    #: Per-layer probes of the SQL caching stack (schema v5).
    cache_lookups: list[dict] = field(default_factory=list)
    #: Per-shuffle partition histograms and heavy keys (schema v6).
    skew_records: list[dict] = field(default_factory=list)
    stage_sim: list[dict] = field(default_factory=list)
    #: True when the only evidence is a flight-recorder dump.
    flight_only: bool = False
    #: Where the record was loaded from, and that log's header (cluster
    #: geometry): provenance, not part of what the query did.
    source: str = field(default="", compare=False)
    header: dict = field(default_factory=dict, compare=False)
    _analysis: Any = field(
        default=None, init=False, repr=False, compare=False
    )

    def analyze(self) -> "QueryAnalysis":
        """The profiles' QueryAnalysis on the header's cluster geometry
        (computed once: call it when the profiles are complete)."""
        if self._analysis is None:
            from repro.obs.analyze import analyze_profiles

            self._analysis = analyze_profiles(
                "",
                self.profiles,
                num_workers=self.header.get("workers", 1),
                cores_per_worker=self.header.get("cores_per_worker", 1),
            )
        return self._analysis

    @property
    def num_tasks(self) -> int:
        return sum(profile.total_tasks for profile in self.profiles)

    def to_query_trace(self):
        """Rebuild a QueryTrace from the timeline (Perfetto export)."""
        from repro.obs.tracer import QueryTrace, Span, TraceEvent

        trace = QueryTrace()
        for entry in self.timeline:
            common = {
                "name": entry["name"],
                "category": entry.get("category", ""),
                "lane": entry.get("lane", "driver"),
                "args": dict(entry.get("args") or {}),
            }
            if entry["type"] == "span":
                trace.spans.append(
                    Span(
                        span_id=len(trace.spans),
                        parent_id=None,
                        start=entry["start"],
                        end=entry["end"],
                        **common,
                    )
                )
            else:
                trace.events.append(
                    TraceEvent(timestamp=entry.get("ts", 0.0), **common)
                )
        return trace

    # ------------------------------------------------------------------
    # Per-query summaries
    # ------------------------------------------------------------------
    def worker_busy_seconds(self) -> dict[Any, float]:
        """Per-lane busy simulated seconds from task spans."""
        busy: dict[Any, float] = {}
        for entry in self.timeline:
            if (
                entry["type"] == "span"
                and entry.get("category") == "task"
            ):
                lane = entry.get("lane", "driver")
                busy[lane] = busy.get(lane, 0.0) + (
                    entry["end"] - entry["start"]
                )
        return busy

    def time_bounds(self) -> Optional[tuple[float, float]]:
        """(first, last) simulated instant the timeline covers, or None
        when it is empty."""
        times: list[float] = []
        for entry in self.timeline:
            if entry["type"] == "span":
                times.extend((entry["start"], entry["end"]))
            elif "ts" in entry:
                times.append(entry["ts"])
        return (min(times), max(times)) if times else None

    def makespan(self) -> float:
        """Simulated span of the query's timeline (its begin-to-end
        clock interval when the timeline is empty)."""
        bounds = self.time_bounds()
        if bounds is None:
            return max(self.ended - self.started, 0.0)
        return bounds[1] - bounds[0]

    def stage_write_skew(self) -> list[dict]:
        """Per map stage: max/mean shuffle-write bytes across tasks."""
        out: list[dict] = []
        for profile in self.profiles:
            for stage in profile.stages:
                writes = [task.shuffle_write_bytes for task in stage.tasks]
                if not stage.is_shuffle_map or not any(writes):
                    continue
                mean = sum(writes) / len(writes)
                out.append(
                    {
                        "job_id": profile.job_id,
                        "stage_id": stage.stage_id,
                        "name": stage.name,
                        "max_bytes": max(writes),
                        "mean_bytes": mean,
                        "skew": max(writes) / mean,
                    }
                )
        return out


class Marks:
    """Watermarks over the context-global buffers (trace, counters, spill
    attribution, clock) taken when a statement starts, so :func:`capture`
    can cut its slice out of them.  Interleaved lifecycle queries share
    those buffers, so their records carry no slice."""

    def __init__(self, ctx: "EngineContext"):
        tracer = ctx.tracer
        self.spans = len(tracer.trace.spans)
        self.events = len(tracer.trace.events)
        self.counters = dict(tracer.metrics.snapshot()["counters"])
        self.spills = ctx.memory.spill_snapshot()
        self.started = tracer.clock.now()


def capture(
    ctx: "EngineContext",
    scope: "QueryScope",
    marks: Optional[Marks] = None,
    **identity: Any,
) -> QueryRecord:
    """The record of the query that ran in ``scope``, ended now.

    Everything the scope holds goes in, skew records of its shuffles
    included — so call it before ``scope.close()`` frees their map
    outputs.  With ``marks`` the record also takes the timeline, counter
    deltas, memory watermarks and spills since then.  ``identity`` is
    the rest (name, kind, text, status, error, query_id, started,
    tenant, priority).
    """
    tracer = ctx.tracer
    cluster = ctx.cluster
    report = scope.report
    ended = tracer.clock.now()

    def at_end(rows: list[dict]) -> list[dict]:
        return [{**row, "ts": ended} for row in rows]

    record = QueryRecord(
        ended=ended,
        profiles=list(scope.profiles),
        plan_text=scope.plan_text,
        result_rows=scope.result_rows,
        cache_lookups=at_end(scope.cache_lookups),
        header={
            "workers": cluster.num_workers,
            "cores_per_worker": (
                cluster.workers[0].cores if cluster.workers else 1
            ),
        },
        **identity,
    )
    if marks is not None:
        record.started = marks.started
        record.timeline = timeline_entries(
            tracer.trace.spans[marks.spans:],
            tracer.trace.events[marks.events:],
        )
        record.counters = {
            key: value - marks.counters.get(key, 0.0)
            for key, value in tracer.metrics.snapshot()["counters"].items()
            if value != marks.counters.get(key, 0.0)
        }
        record.memory = at_end(ctx.memory.watermarks())
        record.spills = at_end(ctx.memory.spill_rows_since(marks.spills))
    analysis = record.analyze()
    record.sim_seconds = analysis.total_sim_seconds
    record.stage_sim = [stage.row() for stage in analysis.stages]
    if report is not None:
        record.operator_modes = list(report.operator_modes)
        record.operator_profiles = build_operator_profiles(
            report.operator_stamps,
            actual_rows_from_profiles(record.profiles),
        )
    record.skew_records = at_end(ctx.shuffle_manager.skew_records(scope))
    return record
