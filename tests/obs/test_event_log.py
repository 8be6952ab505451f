"""Event-log writer, flight recorder, and the round-trip property.

The acceptance bar: a TPC-H query executed with event logging enabled
must produce a log from which the HistoryStore reproduces the same
stage/task/shuffle aggregates as the live QueryProfile — exact
simulated-clock equality, over compressed and plain tables and a chaos
run —
and a killed/cancelled query must leave a flight-recorder dump with
tracing disabled.
"""

from __future__ import annotations

import json

import pytest

from repro import SharkContext
from repro.faults import FaultInjector
from repro.obs.analyze import render_query
from repro.obs.events import (
    EventLogSchemaError,
    EventLogWriter,
    FlightRecorder,
    SCHEMA_VERSION,
    read_event_log,
    validate_record,
)
from repro.obs.history import HistoryStore, QueryRecord
from repro.workloads import tpch


def _tpch_shark(compress=True, **kwargs) -> SharkContext:
    shark = SharkContext(num_workers=4, cores_per_worker=2, **kwargs)
    properties = None if compress else {"shark.compress": "false"}
    for name, data in (
        ("lineitem", tpch.generate_lineitem(2000)),
        ("orders", tpch.generate_orders(500)),
        ("customer", tpch.generate_customer(50)),
    ):
        shark.create_table(
            name, data.schema, cached=True, properties=properties
        )
        shark.load_rows(name, data.rows)
    return shark


class TestSchemaValidation:
    def test_unknown_record_type_rejected(self):
        with pytest.raises(EventLogSchemaError, match="unknown"):
            validate_record({"type": "telemetry"})

    def test_missing_fields_rejected(self):
        with pytest.raises(EventLogSchemaError, match="missing"):
            validate_record({"type": "query_begin", "query_id": "q0"})

    def test_writer_refuses_malformed_record(self, tmp_path):
        with EventLogWriter(tmp_path / "log.jsonl", 2, 2) as log:
            with pytest.raises(EventLogSchemaError):
                log.write({"type": "span", "query_id": "q0"})

    def test_closed_writer_refuses_writes(self, tmp_path):
        log = EventLogWriter(tmp_path / "log.jsonl", 2, 2)
        log.close()
        with pytest.raises(EventLogSchemaError, match="closed"):
            log.write(
                {"type": "counters", "query_id": "q0", "deltas": {}}
            )


class TestWriter:
    def test_header_first_and_seq_monotonic(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLogWriter(path, 4, 2, source="test") as log:
            log.write_query(QueryRecord(name="q", sim_seconds=1.0))
        records = read_event_log(path)
        assert records[0]["type"] == "header"
        assert records[0]["version"] == SCHEMA_VERSION
        assert records[0]["workers"] == 4
        assert records[0]["source"] == "test"
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl.gz"
        with EventLogWriter(path, 2, 1) as log:
            log.write_query(
                QueryRecord(name="q", status="ok", sim_seconds=0.5)
            )
        records = read_event_log(path)
        assert records[-1]["type"] == "query_end"
        assert records[-1]["sim_seconds"] == 0.5

    def test_deterministic_bytes(self, tmp_path):
        """Two identical runs produce byte-identical logs (simulated
        clock, sorted keys, writer-stamped seq)."""
        paths = []
        for index in range(2):
            shark = _tpch_shark()
            path = tmp_path / f"run{index}.jsonl"
            shark.enable_event_log(path)
            shark.sql(tpch.TPCH_QUERIES["Q6"])
            shark.close_event_log()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record({"type": "instant", "n": i})
        assert len(flight) == 4
        assert [e["n"] for e in flight.events()] == [6, 7, 8, 9]

    def test_dump_to_directory(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        flight.dump_dir = str(tmp_path)
        flight.record({"type": "instant", "name": "task"})
        record = flight.dump("cancelled", query="q7")
        assert record["reason"] == "cancelled"
        dumped = read_event_log(tmp_path / "flight-0000.jsonl")
        assert dumped[0]["type"] == "flight_dump"
        assert dumped[0]["query_id"] == "q7"
        assert len(dumped[0]["events"]) == 1

    def test_dump_prefers_sink(self, tmp_path):
        flight = FlightRecorder()
        sunk = []
        flight.sink = sunk.append
        flight.dump_dir = str(tmp_path)
        flight.dump("error")
        assert len(sunk) == 1
        assert not list(tmp_path.iterdir())  # sink won, no file

    def test_live_with_tracing_disabled(self):
        shark = _tpch_shark()
        assert not shark.tracer.enabled
        shark.sql("SELECT COUNT(*) FROM lineitem")
        assert len(shark.tracer.flight) > 0
        assert len(shark.trace) == 0  # tracing stayed off

    def test_failed_query_dumps_with_tracing_disabled(self, tmp_path):
        shark = _tpch_shark()
        shark.register_udf("boom", lambda value: 1 / 0)
        path = tmp_path / "log.jsonl"
        shark.enable_event_log(path)
        with pytest.raises(Exception):
            shark.sql("SELECT boom(L_ORDERKEY) FROM lineitem")
        shark.close_event_log()
        records = read_event_log(path)
        dumps = [r for r in records if r["type"] == "flight_dump"]
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "error"
        assert dumps[0]["events"]  # partial timeline captured
        ends = [r for r in records if r["type"] == "query_end"]
        assert ends[-1]["status"] == "error"
        assert ends[-1]["error"]


def _logged_records(shark, path, run) -> list:
    """Run ``run()`` with an event log at ``path``; returns the live
    QueryRecord objects the writer was handed, in order."""
    log = shark.enable_event_log(path)
    written = []
    write_query = log.write_query
    log.write_query = lambda record: (
        written.append(record),
        write_query(record),
    )[1]
    try:
        run()
    finally:
        shark.close_event_log()
    return written


class TestRoundTrip:
    """``load(write(record)) == record``: the HistoryStore hands back the
    live QueryRecord — profiles, rows, timeline and all — by dataclass
    equality."""

    def _assert_round_trip(self, shark, query, path):
        shark.engine.reset_profiles()
        (written,) = _logged_records(
            shark, path, lambda: shark.sql(query)
        )
        live = shark.engine.profiles
        assert written.profiles == live and written.num_tasks > 0

        store = HistoryStore.load(path)
        (loaded,) = store.queries
        assert loaded == written
        assert loaded.profiles == live
        # Rendered from the log or from the live capture: the same text.
        assert render_query(loaded) == render_query(written)

        # Exact simulated-clock equality: the history store recomputes
        # the same simulated seconds the writer recorded.
        from repro.obs.analyze import analyze_profiles

        live_analysis = analyze_profiles(
            "", live, num_workers=4, cores_per_worker=2
        )
        assert loaded.sim_seconds == live_analysis.total_sim_seconds
        assert (
            loaded.analyze().total_sim_seconds
            == live_analysis.total_sim_seconds
        )
        return loaded

    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("key", ["Q1", "Q3", "Q6"])
    def test_tpch_round_trip(self, tmp_path, compress, key):
        shark = _tpch_shark(compress=compress)
        self._assert_round_trip(
            shark, tpch.TPCH_QUERIES[key], tmp_path / "log.jsonl"
        )

    def test_driver_merge_price_survives_the_log(self, tmp_path):
        """Q6 has no GROUP BY: its partials merge on the driver, after
        its one stage.  The job record carries what was merged, so the
        replayed record prices the merge as the live one does, and
        renders the stage and the merge, one line each."""
        shark = _tpch_shark()
        loaded = self._assert_round_trip(
            shark, tpch.TPCH_QUERIES["Q6"], tmp_path / "log.jsonl"
        )
        (job,) = loaded.profiles
        (stage,) = job.stages
        assert job.driver_task.records_in == stage.num_tasks
        analysis = loaded.analyze()
        (merge,) = analysis.merges
        assert merge.sim_seconds > 0
        assert loaded.sim_seconds == (
            analysis.stages[0].sim_seconds + merge.sim_seconds
        )
        lines = render_query(loaded).splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith(
            ("  stage ", "  driver merge")
        )] == [
            f"  stage {stage.stage_id} (result, {stage.name})",
            f"  driver merge (job {job.job_id})",
        ]
        assert (
            f"{stage.num_tasks} partials, rows {stage.num_tasks}, fetched "
            in render_query(loaded)
        )

    def test_group_by_driver_merge_price_survives_the_log(self, tmp_path):
        """agg_7's seven groups: PDE sizes its merge to one reducer, so
        the driver fetches its map outputs and merges them, with no
        reduce stage.  The replayed record prices the merge as the live
        one does and renders the map outputs it fetched."""
        shark = _tpch_shark()
        loaded = self._assert_round_trip(
            shark, tpch.AGGREGATION_QUERIES[7], tmp_path / "log.jsonl"
        )
        pre_shuffle, job = loaded.profiles
        (stage,) = pre_shuffle.stages
        assert stage.is_shuffle_map and job.stages[0].num_tasks == 0
        assert job.driver_map_outputs == stage.num_tasks
        analysis = loaded.analyze()
        (merge,) = analysis.merges
        assert merge.map_outputs == stage.num_tasks and merge.sim_seconds > 0
        assert loaded.sim_seconds == (
            analysis.stages[0].sim_seconds + merge.sim_seconds
        )
        assert (
            f"driver merge (job {job.job_id}): {stage.num_tasks} map "
            f"outputs, fetched " in render_query(loaded)
        )

    def test_chaos_round_trip(self, tmp_path):
        injector = FaultInjector(
            seed=11,
            transient_failure_rate=0.10,
            stragglers_per_stage=1,
            straggler_slowdown=8.0,
        )
        shark = _tpch_shark(fault_injector=injector)
        self._assert_round_trip(
            shark, tpch.TPCH_QUERIES["Q1"], tmp_path / "log.jsonl"
        )

    def test_capped_spill_round_trip(self, tmp_path):
        shark = _tpch_shark(memory_per_worker_bytes=512)
        loaded = self._assert_round_trip(
            shark, tpch.TPCH_QUERIES["Q1"], tmp_path / "log.jsonl"
        )
        assert loaded.spills and loaded.memory
        assert "spills:" in render_query(loaded)

    def test_cached_round_trip(self, tmp_path):
        shark = _tpch_shark()
        shark.enable_sql_cache()
        text = tpch.TPCH_QUERIES["Q6"]
        cold, warm = _logged_records(
            shark,
            tmp_path / "log.jsonl",
            lambda: (shark.sql(text), shark.sql(text)),
        )
        assert warm.cache_lookups[0]["outcome"] == "hit"
        assert not warm.profiles and warm.result_rows == cold.result_rows
        assert HistoryStore.load(tmp_path / "log.jsonl").queries == [
            cold,
            warm,
        ]

    @pytest.mark.parametrize(
        "kwargs, sql_cache",
        [({}, False), ({"memory_per_worker_bytes": 512}, False), ({}, True)],
        ids=["plain", "capped", "sql-cache"],
    )
    def test_explain_analyze_is_the_rendered_record(
        self, tmp_path, kwargs, sql_cache
    ):
        """EXPLAIN ANALYZE prints ``render_query`` of the query's record
        — the same text ``history --query`` rebuilds from the log — plus
        only what a live session alone can add."""
        shark = _tpch_shark(**kwargs)
        if sql_cache:
            shark.enable_sql_cache()
        path = tmp_path / "log.jsonl"
        text = shark.explain_analyze(tpch.TPCH_QUERIES["Q1"], log=path)
        store = HistoryStore.load(path)
        (loaded,) = store.queries
        rendered = render_query(loaded)
        live_only = ("  -- ", "  pressure events: ")
        lines = [
            line
            for line in text.partition("\n  == sql cache ==")[0].splitlines()
            if not line.startswith(live_only)
        ]
        assert lines == rendered.splitlines()
        assert ("== sql cache ==" in text) == sql_cache
        assert rendered in store.report(query=loaded.query_id)

    def test_traced_timeline_round_trips(self, tmp_path):
        shark = _tpch_shark()
        shark.enable_tracing()
        path = tmp_path / "log.jsonl"
        (written,) = _logged_records(
            shark, path, lambda: shark.sql(tpch.TPCH_QUERIES["Q6"])
        )
        live_spans = len(shark.trace.spans)
        live_events = len(shark.trace.events)
        store = HistoryStore.load(path)
        assert store.queries == [written] and written.timeline
        trace = store.queries[0].to_query_trace()
        assert len(trace.spans) == live_spans
        assert len(trace.events) == live_events
        # The export is valid Chrome-trace JSON.
        document = trace.to_chrome_trace()
        json.dumps(document)
        assert document["traceEvents"]


class TestServingFieldsV4:
    """Schema v4: optional tenant/priority/shed_reason fields.  They are
    written only when set and never appear in ``_REQUIRED``, so v2/v3
    logs stay loadable and tenantless queries round-trip unchanged."""

    def test_serving_fields_round_trip_exactly(self, tmp_path):
        path = tmp_path / "serving.jsonl"
        with EventLogWriter(path, 2, 2) as log:
            log.write_query(
                QueryRecord(
                    name="tagged",
                    status="shed",
                    started=1.0,
                    ended=2.5,
                    sim_seconds=0.0,
                    tenant="crawler",
                    priority="best_effort",
                    shed_reason="brownout",
                )
            )
            log.write_query(
                QueryRecord(name="plain", started=3.0, ended=4.0)
            )
        store = HistoryStore.load(path)
        tagged = store.query("tagged")
        assert tagged.tenant == "crawler"
        assert tagged.priority == "best_effort"
        assert tagged.shed_reason == "brownout"
        assert tagged.status == "shed"
        plain = store.query("plain")
        assert plain.tenant is None
        assert plain.priority is None
        assert plain.shed_reason is None

    def test_untagged_records_omit_the_fields_entirely(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        with EventLogWriter(path, 2, 2) as log:
            log.write_query(QueryRecord(name="plain"))
        raw = path.read_text()
        assert '"tenant"' not in raw
        assert '"priority"' not in raw
        assert '"shed_reason"' not in raw

    def test_v3_log_loads_with_serving_fields_none(self, tmp_path):
        path = tmp_path / "v3.jsonl"
        records = [
            {
                "seq": 0,
                "type": "header",
                "version": 3,
                "workers": 2,
                "cores_per_worker": 2,
            },
            {
                "seq": 1,
                "type": "query_begin",
                "query_id": "q0000",
                "name": "legacy",
                "kind": "sql",
                "text": "SELECT 1",
                "ts": 0.0,
            },
            {
                "seq": 2,
                "type": "query_end",
                "query_id": "q0000",
                "status": "ok",
                "ts": 1.0,
                "sim_seconds": 1.0,
            },
        ]
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        store = HistoryStore.load(path)
        legacy = store.query("legacy")
        assert legacy.status == "ok"
        assert legacy.tenant is None
        assert legacy.priority is None
        assert legacy.shed_reason is None
        # A v3 log contributes nothing to the serving aggregates.
        assert store.tenant_rows() == []
        assert store.tier_latencies() == {}

    def test_v2_style_log_still_loads(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        records = [
            {
                "seq": 0,
                "type": "header",
                "version": 2,
                "workers": 2,
                "cores_per_worker": 2,
            },
            {
                "seq": 1,
                "type": "query_begin",
                "query_id": "q0000",
                "name": "old",
                "kind": "sql",
                "text": None,
                "ts": 0.0,
            },
            {
                "seq": 2,
                "type": "memory_watermark",
                "query_id": "q0000",
                "worker": 0,
                "pool": "execution",
                "peak_bytes": 64,
                "ts": 0.5,
            },
            {
                "seq": 3,
                "type": "query_end",
                "query_id": "q0000",
                "status": "ok",
                "ts": 1.0,
                "sim_seconds": 1.0,
            },
        ]
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        store = HistoryStore.load(path)
        old = store.query("old")
        assert old.status == "ok"
        assert old.tenant is None
        assert old.memory[0]["peak_bytes"] == 64

    def test_current_schema_version_is_v6(self):
        # v6 added operator_profile and shuffle_skew records (plan
        # quality observability).
        assert SCHEMA_VERSION == 6


class TestCacheLookupsV5:
    def test_cache_lookups_round_trip(self, tmp_path):
        # The "fragment" row is the old-log case: the SQL cache wrote
        # one (with hits / misses) while it had a scan-side layer; such
        # logs must keep loading and rendering.
        path = tmp_path / "log.jsonl"
        lookups = [
            {"layer": "result", "outcome": "miss"},
            {"layer": "plan", "outcome": "hit"},
            {"layer": "fragment", "outcome": "hit", "hits": 3, "misses": 1},
        ]
        with EventLogWriter(path, 2, 2) as log:
            log.write_query(
                QueryRecord(name="probed", cache_lookups=lookups)
            )
        store = HistoryStore.load(path)
        record = store.query("probed")
        assert [r["layer"] for r in record.cache_lookups] == [
            "result", "plan", "fragment",
        ]
        assert record.cache_lookups[2]["hits"] == 3
        report = store.cache_report()
        assert "sql cache report" in report
        assert "plan" in report and "fragment" in report

    def test_cache_off_emits_no_lookup_records(self, tmp_path):
        # The byte-identity guarantee for cache-off logs: no
        # cache_lookup record, not even an empty list.
        path = tmp_path / "log.jsonl"
        with EventLogWriter(path, 2, 2) as log:
            log.write_query(QueryRecord(name="plain"))
            log.write_query(QueryRecord(name="empty", cache_lookups=[]))
        assert '"cache_lookup"' not in path.read_text()

    def test_v4_log_loads_with_empty_cache_lookups(self, tmp_path):
        path = tmp_path / "v4.jsonl"
        records = [
            {
                "seq": 0,
                "type": "header",
                "version": 4,
                "workers": 2,
                "cores_per_worker": 2,
            },
            {
                "seq": 1,
                "type": "query_begin",
                "query_id": "q0000",
                "name": "legacy",
                "kind": "sql",
                "text": "SELECT 1",
                "ts": 0.0,
            },
            {
                "seq": 2,
                "type": "query_end",
                "query_id": "q0000",
                "status": "ok",
                "ts": 1.0,
                "sim_seconds": 1.0,
            },
        ]
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        store = HistoryStore.load(path)
        assert store.query("legacy").cache_lookups == []
        assert "0 probed" in store.cache_report()

    def test_legacy_fixture_logs_still_load(self):
        """Satellite of PR 10: one committed fixture log per historical
        schema version.  ``HistoryStore.load`` must keep parsing every
        one of them as the schema moves forward."""
        import pathlib

        fixtures = pathlib.Path(__file__).parent / "fixtures"
        for version in (2, 3, 4, 5):
            store = HistoryStore.load(fixtures / f"log_v{version}.jsonl")
            assert store.queries, f"v{version} fixture loaded no queries"
            first = store.queries[0]
            assert first.status in ("ok", "shed")
            # Pre-v6 logs have no plan-quality records — the new
            # accessors must degrade to empty, not raise.
            assert store.operator_profiles() == []
            assert first.skew_records == []
            assert "predates schema v6" in store.plan_quality_report()
        # Version-specific signatures survive the trip.
        v3 = HistoryStore.load(fixtures / "log_v3.jsonl")
        assert v3.queries[0].spills[0]["owner"] == "sort"
        v4 = HistoryStore.load(fixtures / "log_v4.jsonl")
        assert v4.query("v4 fixture").tenant == "analytics"
        assert v4.query("v4 shed").shed_reason == "brownout"
        v5 = HistoryStore.load(fixtures / "log_v5.jsonl")
        assert v5.query("v5 warm").cache_lookups[0]["outcome"] == "hit"

    def test_live_query_streams_lookup_outcomes(self, tmp_path):
        path = tmp_path / "live.jsonl"
        shark = _tpch_shark()
        shark.enable_sql_cache()
        shark.enable_event_log(path, source="test", seed=1)
        text = "SELECT COUNT(*) FROM lineitem"
        shark.sql(text)  # cold: result miss, plan miss
        shark.sql(text)  # warm: result hit
        shark.close_event_log()
        store = HistoryStore.load(path)
        cold, warm = store.queries[-2], store.queries[-1]
        outcomes = {
            (r["layer"], r["outcome"]) for r in cold.cache_lookups
        }
        assert ("result", "miss") in outcomes
        assert ("plan", "miss") in outcomes
        assert ("result", "hit") in {
            (r["layer"], r["outcome"]) for r in warm.cache_lookups
        }
        assert "result" in store.cache_report()


class TestPlanQualityV6:
    """Schema v6: operator_profile + shuffle_skew records."""

    def test_synthetic_records_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        profiles = [
            {
                "operator": "scan(lineitem)",
                "op_id": 0,
                "mode": "vectorized",
                "est_rows": 2000,
                "est_source": "catalog",
                "actual_rows": 2000,
                "q_error": 1.0,
            },
            {
                "operator": "filter",
                "op_id": 1,
                "mode": "vectorized",
                "est_rows": 600,
                "est_source": "guess",
                "actual_rows": 50,
                "q_error": 12.0,
                "detail": "(L_QUANTITY < 24)",
            },
        ]
        skew = [
            {
                "shuffle_id": 0,
                "num_maps": 2,
                "num_reduces": 4,
                "rows": [90, 4, 3, 3],
                "bytes": [900, 40, 30, 30],
                "total_rows": 100,
                "total_bytes": 1000,
                "row_skew": 3.6,
                "byte_skew": 3.6,
                "straggler_partition": 0,
                "heavy_keys": [["'A'", 88], ["'B'", 6]],
            }
        ]
        with EventLogWriter(path, 2, 2) as log:
            log.write_query(
                QueryRecord(
                    name="profiled",
                    operator_profiles=profiles,
                    skew_records=skew,
                )
            )
        store = HistoryStore.load(path)
        record = store.query("profiled")
        # The payload fields round-trip exactly.
        assert len(record.operator_profiles) == 2
        for sent, loaded in zip(profiles, record.operator_profiles):
            assert sent == {
                key: loaded[key] for key in sent
            }
        assert record.skew_records[0]["heavy_keys"] == [["'A'", 88], ["'B'", 6]]
        assert record.skew_records[0]["rows"] == [90, 4, 3, 3]
        assert len(store.operator_profiles()) == 2
        report = store.plan_quality_report()
        assert "filter" in report and "q-error 12.00" in report
        priors = store.cardinality_priors()
        assert {p["operator"] for p in priors} == {
            "scan(lineitem)", "filter",
        }

    def test_unprofiled_query_emits_no_v6_records(self, tmp_path):
        # Byte-identity for plan-quality-free queries: no empty
        # operator_profile/shuffle_skew records, no empty
        # operator_rows on tasks.
        path = tmp_path / "log.jsonl"
        with EventLogWriter(path, 2, 2) as log:
            log.write_query(QueryRecord(name="plain"))
            log.write_query(
                QueryRecord(
                    name="empty", operator_profiles=[], skew_records=[]
                )
            )
        raw = path.read_text()
        assert '"operator_profile"' not in raw
        assert '"shuffle_skew"' not in raw
        assert '"operator_rows"' not in raw

    @pytest.mark.parametrize("compress", [True, False])
    def test_live_query_streams_profiles(self, tmp_path, compress):
        path = tmp_path / "live.jsonl"
        shark = _tpch_shark(compress=compress)
        shark.enable_event_log(path, source="test")
        shark.sql(tpch.TPCH_QUERIES["Q1"])
        shark.close_event_log()
        store = HistoryStore.load(path)
        record = store.queries[0]
        operators = [row["operator"] for row in record.operator_profiles]
        assert any(op.startswith("scan(") for op in operators)
        assert all(
            row["mode"].startswith("vectorized")
            for row in record.operator_profiles
        )
        for row in record.operator_profiles:
            assert row["actual_rows"] is not None
        # Q1 groups by (returnflag, linestatus): one shuffle, skewed
        # toward the common flag values, with labelled heavy keys.
        assert record.skew_records
        first = record.skew_records[0]
        assert first["shuffle_id"] == 0
        assert sum(first["rows"]) == first["total_rows"]
        assert first["heavy_keys"]
        # Rebuilt task metrics carry the per-operator row counts.
        rebuilt = record.profiles
        assert any(
            task.operator_rows
            for profile in rebuilt
            for stage in profile.stages
            for task in stage.tasks
        )
