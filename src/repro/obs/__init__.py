"""Observability: structured tracing and a metrics registry.

Everything the engine emits while executing — job/stage/task spans,
shuffle writes and fetches, PDE re-planning decisions, worker kills and
lineage recoveries, cache and block-store activity — flows through one
:class:`~repro.obs.tracer.Tracer` per :class:`~repro.engine.context.
EngineContext`.  Timestamps come from a **simulated** discrete-event
clock (:class:`~repro.obs.clock.VirtualClock`) advanced by the cost
model's per-task second estimates; ``src/repro`` never reads the wall
clock, so traces are deterministic and reproducible.

Consumers:

* :class:`~repro.obs.record.QueryRecord` — the one statement of what a
  query did, captured off its ``QueryScope`` (:func:`repro.obs.record.
  capture`), written to and loaded from the event log
  (:mod:`repro.obs.events`, :mod:`repro.obs.history`) and rendered by
  :func:`repro.obs.analyze.render_query`;
* ``EXPLAIN ANALYZE <query>`` and ``history --query`` — both that one
  rendering: the optimized plan annotated with per-stage task counts,
  rows, bytes, attempts and simulated seconds, then memory, operator
  modes, plan quality and shuffle skew;
* the history reports, the query doctor (:mod:`repro.obs.doctor`) and
  the perf sentinel (:mod:`repro.obs.sentinel`), which read loaded
  records and nothing else;
* :meth:`~repro.obs.tracer.QueryTrace.to_chrome_trace` — exports the
  span timeline as Chrome ``chrome://tracing`` / Perfetto JSON keyed by
  virtual worker;
* the shell's ``.profile`` / ``.metrics`` / ``.trace`` dot-commands and
  the benchmark harness's ``--trace-out`` option.

Tracing is **off by default**: every emit method returns immediately
when the tracer is disabled, so the benchmark path pays nothing beyond
a predicate check.  The metrics registry is always on — plain counter
increments — because the shell's ``.metrics`` view must work without
opting into span collection.
"""

from repro.obs.clock import VirtualClock
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import QueryTrace, Span, TraceEvent, Tracer

#: repro.obs.analyze imports the engine (which imports this package), so
#: its symbols load lazily — eager import would be circular when this
#: package is the import entry point (``python -m repro.obs.history``).
_ANALYZE_EXPORTS = ("QueryAnalysis", "StageAnalysis", "analyze_profiles")


def __getattr__(name: str):
    if name in _ANALYZE_EXPORTS:
        from repro.obs import analyze

        return getattr(analyze, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "QueryAnalysis",
    "QueryTrace",
    "Span",
    "StageAnalysis",
    "TraceEvent",
    "Tracer",
    "VirtualClock",
    "analyze_profiles",
]
