"""Structured spans and events over the simulated clock.

Span taxonomy (the ``category`` field):

``query``
    One SQL statement, driver lane.  Under the lifecycle manager
    (:mod:`repro.engine.lifecycle`) also the lifecycle instants:
    ``query.admitted``, ``query.queued``, ``query.rejected`` (admission
    control or open circuit), ``query.cancelled``, ``query.deadline``,
    ``query.circuit_open``, and ``query.shuffles_released``.
``job`` / ``stage``
    Scheduler activity, driver lane; stages nest under jobs.
``task``
    One task attempt on a worker lane; duration is the cost model's
    estimate for the task's measured volumes.
``driver``
    ``driver merge``: a job's partitions computed on the driver lane
    from its result tasks' outputs (a global aggregate's merge), priced
    as that work with no task launch.
``shuffle``
    Instant: ``shuffle.fetch_failed`` (a lost map output, the trigger for
    lineage recovery).  A write's and a fetch's volumes are no instant:
    they are their task's ``TaskMetrics`` — a map task span's
    ``shuffle_write_bytes``, the event log's task record.
``recovery``
    Instants: ``lineage.recovery`` (lost map outputs recomputed),
    ``task.reexecution``, ``task.retry`` (transient failure, attempt will
    be retried with backoff), ``task.speculative`` (straggler backup copy
    launched); plus ``retry backoff`` spans charging the backoff delay to
    the failed worker's lane.
``cluster``
    Instants: ``worker.kill``, ``worker.restart``, ``worker.added``,
    ``worker.blacklisted`` (repeated failures; probation starts),
    ``worker.probation`` (probation served, schedulable again).
``cache``
    Instants: ``cache.hit``, ``block.evict``.
``pde``
    Instants: one per run-time re-planning decision, carrying the
    observed statistics that justified it.
``sim``
    Slot-occupancy spans emitted by
    :class:`~repro.costmodel.simulator.ClusterSimulator` when handed a
    tracer.

A disabled tracer's emit methods return immediately — the engine's hot
path pays one predicate check and nothing else.  The embedded
:class:`~repro.obs.metrics.MetricsRegistry` is always live (see its
module docstring for why).

Cancellation and cleanup invariants
-----------------------------------

When queries run concurrently under the lifecycle manager, each query
owns a private span stack that the manager swaps in via
:meth:`Tracer.use_stack` at every cooperative handoff — so interleaved
queries' spans nest correctly and never parent across queries.  A query
that reaches a terminal state (done, cancelled, deadline-expired, or
failed) must leave:

* **no open spans** — its query span and any abandoned job/stage spans
  are force-closed with the terminal status (``end_span`` pops through
  children; the manager drains any stragglers on the private stack);
* **no orphaned pinned shuffle blocks** — map outputs it registered are
  released (``ShuffleManager.release_shuffle``) unless the query
  completed normally;
* **no accumulator contributions from cancelled attempts** — attempts
  buffer accumulator updates in their :class:`~repro.engine.task.TaskContext`
  and the scheduler merges only kept attempts, so an attempt killed by
  the cancellation token simply discards its buffer.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

from repro.costmodel.constants import (
    DEFAULT_HARDWARE,
    EngineProfile,
    HardwareProfile,
    SHARK_MEM,
)
from repro.costmodel.models import TaskCostVector, estimate_task_seconds
from repro.obs.clock import DRIVER_LANE, VirtualClock
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry


@dataclass
class Span:
    """A named interval on one lane of the simulated timeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    lane: Hashable
    start: float
    end: Optional[float] = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class TraceEvent:
    """A zero-duration instant on the simulated timeline."""

    name: str
    category: str
    lane: Hashable
    timestamp: float
    args: dict[str, Any] = field(default_factory=dict)


class QueryTrace:
    """Everything one tracer recorded, with Chrome-trace export."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    # ------------------------------------------------------------------
    # Queries (tests and EXPLAIN ANALYZE use these)
    # ------------------------------------------------------------------
    def spans_in_category(self, category: str) -> list[Span]:
        return [span for span in self.spans if span.category == category]

    def events_named(self, name: str) -> list[TraceEvent]:
        return [event for event in self.events if event.name == name]

    def events_in_category(self, category: str) -> list[TraceEvent]:
        return [
            event for event in self.events if event.category == category
        ]

    def span(self, span_id: int) -> Span:
        for candidate in self.spans:
            if candidate.span_id == span_id:
                return candidate
        raise KeyError(f"no span with id {span_id}")

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # ------------------------------------------------------------------
    # Chrome trace export
    # ------------------------------------------------------------------
    def to_chrome_trace(
        self, metadata: Optional[dict[str, Any]] = None
    ) -> dict:
        """The trace as Chrome ``chrome://tracing`` / Perfetto JSON.

        One process ("shark virtual cluster"), one thread per lane —
        the driver first, then each virtual worker — so the timeline
        reads as a per-worker Gantt chart.  A worker running tasks at
        once gets a row per busy core (:func:`_core_rows`); its first
        keeps the lane's thread.  Timestamps are simulated seconds
        rendered as microseconds (the format's native unit).  A span is
        one complete (``"X"``) event, an instant one ``"i"`` event.
        """
        lanes = _ordered_lanes(self)
        rows = _core_rows(self.spans)
        # A lane's first row keeps the lane's index; more rows follow.
        tids = {(lane, 0): index for index, lane in enumerate(lanes)}
        row_spans: dict[int, list[Span]] = {}
        for span in self.spans:
            thread = (span.lane, rows.get(span.span_id, 0))
            tid = tids.setdefault(thread, len(tids))
            row_spans.setdefault(tid, []).append(span)
        threads = sorted(tids, key=lambda t: (tids[(t[0], 0)], t[1]))
        pid = 1
        trace_events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "shark virtual cluster"},
            }
        ]
        for position, (lane, row) in enumerate(threads):
            tid = tids[(lane, row)]
            label = _lane_label(lane) + (f" core {row}" if row else "")
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
            trace_events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": position},
                }
            )
        for tid, spans in row_spans.items():
            for span in spans:
                end = span.end if span.end is not None else span.start
                trace_events.append(
                    {
                        "name": span.name,
                        "cat": span.category,
                        "ph": "X",
                        "ts": span.start * 1e6,
                        "dur": max(end - span.start, 0.0) * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "args": dict(span.args),
                    }
                )
        for event in self.events:
            trace_events.append(
                {
                    "name": event.name,
                    "cat": event.category,
                    "ph": "i",
                    "ts": event.timestamp * 1e6,
                    "pid": pid,
                    "tid": tids[(event.lane, 0)],
                    "s": "t",
                    "args": dict(event.args),
                }
            )
        document: dict[str, Any] = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
        }
        if metadata:
            document["metadata"] = dict(metadata)
        return document

    def write_chrome_trace(
        self, path, metadata: Optional[dict[str, Any]] = None
    ) -> None:
        """Write Chrome-trace JSON to ``path`` (open in Perfetto)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(metadata), handle, indent=1)

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()


class Tracer:
    """One engine context's trace collector.

    Created disabled; :meth:`enable` turns span/event collection on.
    The metrics registry at :attr:`metrics` is live either way.
    Driver-side spans (:meth:`begin_span` / :meth:`end_span` or the
    :meth:`span` context manager) maintain a stack for parent linkage;
    :meth:`task_span` charges the cost model's estimate of a task's
    measured volumes to that worker's lane of the virtual clock.
    """

    def __init__(
        self,
        engine: EngineProfile = SHARK_MEM,
        hardware: HardwareProfile = DEFAULT_HARDWARE,
        enabled: bool = False,
    ) -> None:
        self.engine = engine
        self.hardware = hardware
        self.enabled = enabled
        self.clock = VirtualClock()
        self.metrics = MetricsRegistry()
        self.trace = QueryTrace()
        #: Always-on bounded ring of recent events (post-mortem dumps);
        #: fed before the ``enabled`` check in every emit method.
        self.flight = FlightRecorder()
        self._stack: list[Span] = []
        self._next_span_id = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, reset: bool = False) -> "Tracer":
        if reset:
            self.reset()
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop recorded spans/events and rewind the clock.

        Metrics survive a reset: they aggregate engine lifetime
        activity, while the trace buffer is per-inspection-window.
        """
        self.trace.clear()
        self.clock.reset()
        self._stack.clear()

    def use_stack(self, stack: list) -> list:
        """Swap in a different span stack, returning the previous one.

        The lifecycle manager gives each concurrent query a private
        stack so interleaved queries' spans nest under their own query
        span instead of whichever span another query left open.
        """
        previous = self._stack
        self._stack = stack
        return previous

    def drain_stack(self, stack: list, status: str = "ok") -> None:
        """Force-close every span left on ``stack``, regardless of the
        tracer's enabled state.

        ``end_span`` is a no-op while disabled, so a cleanup loop built
        on it hangs (and leaks open spans) when tracing was turned off
        mid-query.  This drain always pops, stamps a close time, and
        records the terminal ``status``; calling it again on the same
        (now empty) stack is a no-op — idempotent by construction.
        """
        while stack:
            span = stack.pop()
            if span is None:
                continue
            if span.end is None:
                span.end = max(self.clock.now(), span.start)
            span.args.setdefault("status", status)

    def flight_dump(
        self, reason: str, query: Optional[str] = None
    ) -> dict:
        """Dump the flight recorder's ring (see
        :meth:`~repro.obs.events.FlightRecorder.dump`) and account for
        it in metrics and, when tracing is on, the trace itself."""
        record = self.flight.dump(reason, query=query)
        self.metrics.inc("flight.dumps")
        self.instant(
            "flight.dump", "query", reason=reason, query=query,
            events=len(record["events"]),
        )
        return record

    # ------------------------------------------------------------------
    # Driver-side spans
    # ------------------------------------------------------------------
    def begin_span(
        self,
        name: str,
        category: str,
        lane: Hashable = DRIVER_LANE,
        **args: Any,
    ) -> Optional[Span]:
        # The flight recorder sees every span begin as a marker even
        # when tracing is off — that is what makes post-mortem dumps of
        # untraced queries show which query/job/stage was in flight.
        self.flight.record(
            {
                "type": "instant",
                "name": name,
                "category": category,
                "lane": lane,
                "ts": self.clock.now(),
                "args": dict(args),
            }
        )
        if not self.enabled:
            return None
        span = Span(
            span_id=self._new_span_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            lane=lane,
            start=self.clock.now(),
            args=args,
        )
        self.trace.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Optional[Span], **args: Any) -> None:
        if span is None or not self.enabled:
            return
        span.end = max(self.clock.now(), span.start)
        span.args.update(args)
        # Pop through in case an exception skipped inner end_span calls.
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break
            if popped.end is None:
                popped.end = span.end

    @contextmanager
    def span(
        self,
        name: str,
        category: str,
        lane: Hashable = DRIVER_LANE,
        **args: Any,
    ):
        handle = self.begin_span(name, category, lane, **args)
        try:
            yield handle
        finally:
            self.end_span(handle)

    # ------------------------------------------------------------------
    # Worker-lane task spans
    # ------------------------------------------------------------------
    def _not_before(self) -> float:
        """The enclosing driver span's start: a stage's tasks, and the
        instants on their lanes, come after the stage."""
        return self._stack[-1].start if self._stack else 0.0

    def task_span(
        self,
        name: str,
        lane: Hashable,
        vector: Optional[TaskCostVector] = None,
        seconds: Optional[float] = None,
        category: str = "task",
        **args: Any,
    ) -> Optional[Span]:
        """Record one task occupying a worker lane.

        Duration is ``seconds`` when given, otherwise the cost model's
        estimate for ``vector``.  The task cannot start before
        :meth:`_not_before`.
        """
        if seconds is None:
            seconds = (
                self.estimate_seconds(vector) if vector is not None else 0.0
            )
        # The lane clock advances even with tracing off, so flight-
        # recorder dumps carry real simulated timestamps.
        start, end = self.clock.advance_lane(lane, seconds, self._not_before())
        self.flight.record(
            {
                "type": "span",
                "name": name,
                "category": category,
                "lane": lane,
                "start": start,
                "end": end,
                "args": dict(args),
            }
        )
        if not self.enabled:
            return None
        span = Span(
            span_id=self._new_span_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            lane=lane,
            start=start,
            end=end,
            args=args,
        )
        self.trace.spans.append(span)
        return span

    def record_span(
        self,
        name: str,
        category: str,
        lane: Hashable,
        start: float,
        end: float,
        **args: Any,
    ) -> Optional[Span]:
        """Record a span with explicit timestamps (the cluster
        simulator computes its own schedule and reports it here)."""
        if not self.enabled:
            return None
        span = Span(
            span_id=self._new_span_id(),
            parent_id=None,
            name=name,
            category=category,
            lane=lane,
            start=start,
            end=end,
            args=args,
        )
        self.trace.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Instants
    # ------------------------------------------------------------------
    def instant(
        self,
        name: str,
        category: str,
        lane: Hashable = DRIVER_LANE,
        **args: Any,
    ) -> Optional[TraceEvent]:
        timestamp = (
            max(self.clock.lane_time(lane), self._not_before())
            if lane != DRIVER_LANE
            else self.clock.now()
        )
        self.flight.record(
            {
                "type": "instant",
                "name": name,
                "category": category,
                "lane": lane,
                "ts": timestamp,
                "args": dict(args),
            }
        )
        if not self.enabled:
            return None
        event = TraceEvent(
            name=name,
            category=category,
            lane=lane,
            timestamp=timestamp,
            args=args,
        )
        self.trace.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def estimate_seconds(self, vector: TaskCostVector) -> float:
        """Simulated seconds one task takes under this tracer's engine
        and hardware profiles."""
        return estimate_task_seconds(vector, self.engine, self.hardware)

    def _new_span_id(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Tracer({state}, spans={len(self.trace.spans)}, "
            f"events={len(self.trace.events)})"
        )


def _ordered_lanes(trace: QueryTrace) -> list[Hashable]:
    """Driver lane first, then worker lanes in id order, then the rest."""
    seen: set[Hashable] = set()
    for span in trace.spans:
        seen.add(span.lane)
    for event in trace.events:
        seen.add(event.lane)
    seen.discard(DRIVER_LANE)
    workers = sorted(
        (lane for lane in seen if isinstance(lane, int))
    )
    others = sorted(
        (lane for lane in seen if not isinstance(lane, int)), key=str
    )
    return [DRIVER_LANE, *workers, *others]


def _core_rows(spans: list[Span]) -> dict[int, int]:
    """Each worker-lane span's row: the lowest row of its lane free at
    its start, so a lane has a row per core it kept busy at once."""
    rows: dict[int, int] = {}
    lane_ends: dict[Hashable, list[float]] = {}
    for span in sorted(spans, key=lambda s: (s.start, -s.duration)):
        if isinstance(span.lane, int):
            ends = lane_ends.setdefault(span.lane, [])
            free = [row for row, end in enumerate(ends) if end <= span.start]
            row = free[0] if free else len(ends)
            ends[row:row + 1] = [span.start + span.duration]
            rows[span.span_id] = row
    return rows


def _lane_label(lane: Hashable) -> str:
    if lane == DRIVER_LANE:
        return "driver"
    if isinstance(lane, int):
        return f"worker {lane}"
    return str(lane)
