"""Persistent query event log and the always-on flight recorder.

PR 1's tracer and metrics die with the process; this module is what
makes them durable.  Two pieces:

* :class:`EventLogWriter` — streams one JSONL record per event to a
  (optionally gzipped) file: a ``header`` with the schema version and
  cluster geometry, then for each query its begin/plan/operator-modes
  records, the span+instant timeline in simulated-clock order, the
  executed job/stage/task profile (every
  :class:`~repro.engine.metrics.TaskMetrics` field, so
  :class:`~repro.obs.history.HistoryStore` can rebuild the exact
  :class:`~repro.engine.metrics.QueryProfile` aggregates), counter
  deltas, and a ``query_end`` with status and simulated seconds.  Every
  record is schema-checked on write (:data:`_REQUIRED`); a malformed
  record raises :class:`EventLogSchemaError` instead of producing a log
  the history store cannot parse.

* :class:`FlightRecorder` — a bounded ring buffer the tracer feeds on
  *every* span/instant emit, before the enabled check, so it is live
  even with tracing off.  When a query fails, is cancelled, or expires
  its deadline, the tracer dumps the last N events as a ``flight_dump``
  record — into the open event log if one is attached, else to a file
  under :attr:`FlightRecorder.dump_dir`, else kept in memory — giving
  chaos-test post-mortems a partial timeline with no opt-in tracing.

Schema versioning rules live in DESIGN.md §10: adding optional fields is
backward-compatible within a version; removing or renaming a field, or
changing a record type's meaning, bumps :data:`SCHEMA_VERSION` and the
history store refuses unknown major versions rather than misreading
them.  Timestamps are simulated seconds (never wall clock), so two runs
of the same query produce byte-identical logs.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.record import QueryRecord

#: Event-log schema version written into every ``header`` record.
#: v2 adds the ``memory_watermark`` record type and the job record's
#: ``memory_reserved_bytes``/``memory_peak_bytes`` fields (DESIGN.md §11).
#: v3 adds the ``memory_spill`` record type (per-owner spill totals for
#: one query) plus *optional* job/task spill fields — optional so v2
#: logs still load (DESIGN.md §12).
#: v4 adds *optional* serving fields — ``tenant``/``priority`` on
#: ``query_begin`` and ``shed_reason`` on ``query_end`` — plus the
#: ``query.shed`` instant; all optional, so v3/v2 logs still load
#: (DESIGN.md §13).
#: v5 adds the ``cache_lookup`` record type (one per cache-layer probe
#: the SQL caching stack made for a query); older logs simply have none
#: (DESIGN.md §14).
#: v6 adds the ``operator_profile`` record type (per-operator estimated
#: vs. actual rows with q-error), the ``shuffle_skew`` record type
#: (per-shuffle partition histograms and heavy keys), and an *optional*
#: ``operator_rows`` field on ``task`` records — all additive, so
#: v2–v5 logs still load (DESIGN.md §15).
SCHEMA_VERSION = 6

#: Flight-recorder ring capacity (events kept for post-mortems).
FLIGHT_CAPACITY = 512


class EventLogSchemaError(ValueError):
    """A record failed schema validation at write time (or load time)."""


#: Required fields per record type — the schema, version 1.  ``seq`` is
#: stamped by the writer; everything else must be present at write time.
_REQUIRED: dict[str, tuple[str, ...]] = {
    "header": ("version", "workers", "cores_per_worker"),
    "query_begin": ("query_id", "name", "kind", "ts"),
    "plan": ("query_id", "text"),
    "operator_modes": ("query_id", "modes"),
    "span": ("query_id", "name", "category", "lane", "start", "end"),
    "instant": ("query_id", "name", "category", "lane", "ts"),
    "job": ("query_id", "job_id", "num_stages"),
    "stage": (
        "query_id",
        "job_id",
        "stage_id",
        "name",
        "is_shuffle_map",
        "num_tasks",
    ),
    "task": (
        "query_id",
        "job_id",
        "stage_id",
        "partition",
        "worker_id",
        "records_in",
        "bytes_in",
        "records_out",
        "bytes_out",
        "shuffle_read_bytes",
        "shuffle_write_bytes",
        "shuffle_write_records",
        "source",
        "attempts",
        "speculative",
        "batch_rows",
    ),
    "counters": ("query_id", "deltas"),
    "memory_watermark": ("query_id", "worker", "pool", "peak_bytes", "ts"),
    "memory_spill": ("query_id", "owner", "events", "bytes", "runs", "ts"),
    "cache_lookup": ("query_id", "layer", "outcome", "ts"),
    "operator_profile": (
        "query_id",
        "operator",
        "op_id",
        "mode",
        "est_rows",
        "est_source",
        "actual_rows",
        "q_error",
    ),
    "shuffle_skew": (
        "query_id",
        "shuffle_id",
        "num_reduces",
        "rows",
        "bytes",
        "ts",
    ),
    "query_end": ("query_id", "status", "ts", "sim_seconds"),
    "flight_dump": ("reason", "events"),
}


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of span/instant args to JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def validate_record(record: dict) -> dict:
    """Schema-check one record; returns it unchanged or raises."""
    record_type = record.get("type")
    if record_type not in _REQUIRED:
        raise EventLogSchemaError(
            f"unknown event-log record type {record_type!r}"
        )
    missing = [
        key for key in _REQUIRED[record_type] if key not in record
    ]
    if missing:
        raise EventLogSchemaError(
            f"{record_type} record missing fields {missing}"
        )
    return record


class FlightRecorder:
    """Bounded ring of the engine's most recent trace-shaped events.

    Fed by the tracer before its ``enabled`` check, so it costs one
    deque append on the hot path and is never off.  Records are plain
    dicts in the event-log ``span``/``instant`` shape (without
    ``query_id`` — the enclosing ``flight_dump`` record carries that).
    """

    def __init__(self, capacity: int = FLIGHT_CAPACITY) -> None:
        self._ring: deque[dict] = deque(maxlen=capacity)
        #: When set, dumps also stream into the open event log.
        self.sink: Optional[Callable[[dict], None]] = None
        #: When set (and no sink), dumps are written here as one-record
        #: JSONL files the history CLI loads like any other log.
        self.dump_dir: Optional[str] = None
        #: The most recent dump, always kept in memory.
        self.last_dump: Optional[dict] = None
        self._dump_count = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, event: dict) -> None:
        self._ring.append(event)

    def events(self) -> list[dict]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def dump(
        self, reason: str, query: Optional[str] = None
    ) -> dict:
        """Snapshot the ring as a ``flight_dump`` record and persist it.

        Deterministic: the dump sequence number, not the wall clock,
        names on-disk dump files.
        """
        record = validate_record(
            {
                "type": "flight_dump",
                "reason": reason,
                "query_id": query,
                "seq": self._dump_count,
                "events": _jsonable(list(self._ring)),
            }
        )
        self._dump_count += 1
        self.last_dump = record
        if self.sink is not None:
            self.sink(record)
        elif self.dump_dir:
            os.makedirs(self.dump_dir, exist_ok=True)
            path = os.path.join(
                self.dump_dir, f"flight-{record['seq']:04d}.jsonl"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record


class EventLogWriter:
    """Streams schema-checked JSONL records to one event-log file.

    Gzip-compressed when ``path`` ends in ``.gz``.  The constructor
    writes the ``header`` record; :meth:`write_query` emits one query's
    records in canonical order.  Pass the context's metrics registry to
    keep ``events.logged`` / ``eventlog.queries`` live.
    """

    def __init__(
        self,
        path,
        workers: int,
        cores_per_worker: int,
        metrics=None,
        **header_extra: Any,
    ) -> None:
        self.path = str(path)
        self.metrics = metrics
        self.queries_logged = 0
        if metrics is not None:
            metrics.register_gauge(
                "eventlog.queries", lambda: self.queries_logged
            )
        self._seq = 0
        self._closed = False
        if self.path.endswith(".gz"):
            self._handle = gzip.open(self.path, "wt", encoding="utf-8")
        else:
            self._handle = open(self.path, "w", encoding="utf-8")
        self.write(
            {
                "type": "header",
                "version": SCHEMA_VERSION,
                "workers": workers,
                "cores_per_worker": cores_per_worker,
                **_jsonable(header_extra),
            }
        )

    # ------------------------------------------------------------------
    # Low-level record writing
    # ------------------------------------------------------------------
    def write(self, record: dict) -> None:
        if self._closed:
            raise EventLogSchemaError(
                f"event log {self.path} is closed"
            )
        validate_record(record)
        record = {"seq": self._seq, **record}
        self._seq += 1
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self.metrics is not None:
            self.metrics.inc("events.logged")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One query, canonical record order
    # ------------------------------------------------------------------
    def write_query(self, record: "QueryRecord") -> str:
        """Write one query's complete record set; returns its id
        (stamped on ``record`` as ``qNNNN`` when it had none).

        Optional parts — serving fields, plan, operator modes, every row
        list — are written only when set, so a query without them logs
        exactly what it did before they existed.  Each ``job`` / ``stage``
        / ``task`` record is its dataclass's own fields
        (:func:`profile_fields`), so the history store reproduces the
        live profiles exactly.
        """
        if record.query_id is None:
            record.query_id = f"q{self.queries_logged:04d}"
        query_id = record.query_id
        self.queries_logged += 1

        def emit(kind: str, fields: dict) -> None:
            self.write({"type": kind, "query_id": query_id, **fields})

        def scalars(kind: str) -> dict:
            return {
                key: getattr(record, attribute)
                for key, attribute in SCALAR_RECORDS[kind].items()
                if key not in _WHEN_SET
                or getattr(record, attribute) is not None
            }

        emit("query_begin", scalars("query_begin"))
        if record.plan_text:
            emit("plan", scalars("plan"))
        if record.operator_modes:
            emit(
                "operator_modes",
                {"modes": [list(pair) for pair in record.operator_modes]},
            )
        for row in record.operator_profiles:
            emit("operator_profile", _jsonable(row))
        for entry in record.timeline:
            emit(entry["type"], entry)
        for profile in record.profiles:
            job = {"job_id": profile.job_id}
            emit(
                "job",
                {**profile_fields(profile), "num_stages": profile.num_stages},
            )
            for stage in profile.stages:
                emit(
                    "stage",
                    {
                        **job,
                        **profile_fields(stage),
                        "num_tasks": stage.num_tasks,
                    },
                )
                for task in stage.tasks:
                    emit("task", {**job, **profile_fields(task)})
        if record.counters:
            emit(
                "counters",
                {
                    "deltas": {
                        key: value
                        for key, value in sorted(record.counters.items())
                        if value
                    }
                },
            )
        # The row lists taken at query end carry that instant.
        for kind, attribute in _END_ROWS:
            for row in getattr(record, attribute):
                emit(kind, {"ts": record.ended, **_jsonable(row)})
        emit("query_end", scalars("query_end"))
        return query_id


#: Scalar record type -> {its field: the QueryRecord attribute carried}.
#: One table for the writer and the history store's loader.
SCALAR_RECORDS = {
    "query_begin": {
        "name": "name",
        "kind": "kind",
        "text": "text",
        "ts": "started",
        "tenant": "tenant",
        "priority": "priority",
    },
    "plan": {"text": "plan_text"},
    "query_end": {
        "status": "status",
        "error": "error",
        "ts": "ended",
        "sim_seconds": "sim_seconds",
        "stage_sim": "stage_sim",
        "result_rows": "result_rows",
        "shed_reason": "shed_reason",
    },
}

#: The v4 serving fields: written only when set and never in
#: ``_REQUIRED`` — both choices keep v3/v2 logs loadable.
_WHEN_SET = ("tenant", "priority", "shed_reason")

#: (record type, QueryRecord attribute) of the row lists written after
#: the profile, in writer order.
_END_ROWS = (
    ("memory_watermark", "memory"),
    ("memory_spill", "spills"),
    ("cache_lookup", "cache_lookups"),
    ("shuffle_skew", "skew_records"),
)

#: Every list-shaped record type -> the QueryRecord attribute it fills.
RECORD_LISTS = {
    "operator_profile": "operator_profiles",
    "span": "timeline",
    "instant": "timeline",
    **dict(_END_ROWS),
}


def profile_fields(obj: Any) -> dict:
    """The fields a ``job`` / ``stage`` / ``task`` record takes from its
    QueryProfile / StageProfile / TaskMetrics: the dataclass's own.

    This *is* the schema rule for profile records: a field added to one
    of those dataclasses is logged with no further code, and — read back
    by :func:`profile_from_record` — a log that predates it takes the
    field's default.  List fields are the children (written as their own
    records); a dict field (``operator_rows``) is written only when
    non-empty, keeping records of tasks without one unchanged.
    """
    fields = {}
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        if not isinstance(value, list) and value != {}:
            fields[spec.name] = value
    return fields


def profile_from_record(cls: type, record: dict) -> Any:
    """Inverse of :func:`profile_fields`: ``cls`` built from the fields
    the record has, defaults for those it predates."""
    names = {spec.name for spec in dataclasses.fields(cls)}
    return cls(
        **{key: value for key, value in record.items() if key in names}
    )


def timeline_entries(spans: list, events: list) -> list[dict]:
    """The tracer's :class:`~repro.obs.tracer.Span` / ``TraceEvent``
    objects as ``span`` / ``instant`` entries, merged by simulated time
    (the sort is stable, so emission order breaks ties)."""
    entries = [
        {
            "type": "span",
            "name": span.name,
            "category": span.category,
            "lane": _jsonable(span.lane),
            "start": span.start,
            "end": span.end if span.end is not None else span.start,
            "args": _jsonable(span.args),
        }
        for span in spans
    ] + [
        {
            "type": "instant",
            "name": event.name,
            "category": event.category,
            "lane": _jsonable(event.lane),
            "ts": event.timestamp,
            "args": _jsonable(event.args),
        }
        for event in events
    ]
    entries.sort(key=lambda entry: entry.get("start", entry.get("ts")))
    return entries


def read_event_log(path) -> list[dict]:
    """Load one event-log file (``.jsonl`` or ``.jsonl.gz``), validating
    each record; the history store builds on this."""
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    records: list[dict] = []
    with opener(path, "rt", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise EventLogSchemaError(
                    f"{path}:{line_no}: not valid JSON ({error})"
                ) from None
            records.append(validate_record(record))
    return records
