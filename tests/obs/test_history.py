"""HistoryStore: loading, reports, flight-only queries, Perfetto export."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.obs.history import HistoryStore, main as history_main
from repro.obs.events import EventLogSchemaError, SCHEMA_VERSION
from repro.obs.metrics import percentiles_of


def _shark(num_workers: int = 4, num_partitions: int = 6) -> SharkContext:
    shark = SharkContext(num_workers=num_workers, cores_per_worker=2)
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [(f"b{i % 5}", i % 10, float(i)) for i in range(600)],
        num_partitions=num_partitions,
    )
    return shark


FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "log.jsonl"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "log.txt"


#: The golden sections: the five report kinds, then ``--query``.
REPORT_KINDS = ("report", "memory", "tenants", "cache", "quality", "query")


def _report_chunks(path) -> list[tuple[str, str]]:
    """Every history report over one log as ``(kind, text)`` chunks:
    the five report kinds, then ``--query`` for each query, in text and
    in markdown."""
    store = HistoryStore.load(path)
    kinds = (
        ("report", store.report),
        ("memory", store.memory_report),
        ("tenants", store.tenant_report),
        ("cache", store.cache_report),
        ("quality", store.plan_quality_report),
    )
    chunks = []
    for markdown, mode in ((False, "text"), (True, "markdown")):
        for kind, render in kinds:
            chunks.append(
                (kind, f"#### {kind} ({mode})\n{render(markdown=markdown)}")
            )
        for record in store.queries:
            chunks.append((
                "query",
                f"#### --query {record.query_id} ({mode})\n"
                + store.report(markdown=markdown, query=record.query_id),
            ))
    return chunks


def _all_reports(path) -> str:
    """The golden text: every chunk of :func:`_report_chunks`."""
    return "\n\n".join(chunk for _, chunk in _report_chunks(path)) + "\n"


def _golden_chunks() -> list[str]:
    """The golden text split back into the chunks it was joined from."""
    text = GOLDEN.read_text()
    assert text.endswith("\n")
    return [
        "#### " + chunk
        for chunk in ("\n\n" + text[:-1]).split("\n\n#### ")[1:]
    ]


@pytest.fixture
def logged(tmp_path):
    """A two-query event log (one traced) and its SharkContext."""
    shark = _shark()
    path = tmp_path / "events.jsonl"
    shark.enable_event_log(path, source="test")
    shark.sql("SELECT bucket, COUNT(*) FROM readings GROUP BY bucket")
    shark.enable_tracing()
    shark.sql("SELECT COUNT(*) FROM readings WHERE value > 100")
    shark.disable_tracing()
    shark.close_event_log()
    return shark, path


class TestLoading:
    def test_load_file_and_directory(self, logged, tmp_path):
        __, path = logged
        from_file = HistoryStore.load(path)
        from_dir = HistoryStore.load(tmp_path)
        assert len(from_file.queries) == 2
        assert [q.query_id for q in from_dir.queries] == [
            q.query_id for q in from_file.queries
        ]
        assert from_file.queries[0].status == "ok"
        assert from_file.queries[0].counters["tasks.launched"] > 0

    def test_query_lookup_by_id_and_name(self, logged):
        __, path = logged
        store = HistoryStore.load(path)
        record = store.query("q0000")
        assert store.query(record.name) is record
        with pytest.raises(KeyError):
            store.query("nope")

    @pytest.mark.parametrize(
        "version", [2, 3, 4, 5, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1]
    )
    def test_other_schema_version_refused(self, tmp_path, version):
        """The store reads exactly the version this tree writes: an
        older log is refused as a newer one is, never misread."""
        lines = FIXTURE.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["version"] = version
        path = tmp_path / f"v{version}.jsonl"
        path.write_text(
            json.dumps(header, sort_keys=True) + "\n" + "".join(lines[1:])
        )
        with pytest.raises(EventLogSchemaError) as refused:
            HistoryStore.load(path)
        message = str(refused.value)
        assert f"version {version} " in message
        assert f"({SCHEMA_VERSION})" in message

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            HistoryStore.load(tmp_path / "empty-dir")


class TestReports:
    def test_full_report_sections(self, logged):
        __, path = logged
        report = HistoryStore.load(path).report()
        assert "2 queries" in report
        assert "q0000" in report and "q0001" in report
        assert "worker utilization" in report
        assert "cache churn" in report

    def test_single_query_report(self, logged):
        __, path = logged
        store = HistoryStore.load(path)
        report = store.report(query="q0000")
        assert "q0000" in report
        assert "stages" in report
        assert "counter deltas" in report

    def test_markdown_mode(self, logged):
        __, path = logged
        report = HistoryStore.load(path).report(markdown=True)
        assert report.startswith("# ")

    def test_cli_end_to_end(self, logged, tmp_path, capsys):
        __, path = logged
        assert history_main([str(path)]) == 0
        assert "query history" in capsys.readouterr().out
        assert history_main([str(tmp_path / "missing.jsonl")]) == 2

    def test_cli_perfetto_export(self, logged, tmp_path, capsys):
        __, path = logged
        out_dir = tmp_path / "perfetto"
        assert (
            history_main([str(path), "--perfetto-out", str(out_dir)]) == 0
        )
        exports = sorted(out_dir.glob("*.trace.json"))
        assert exports  # the traced query exported
        document = json.loads(exports[0].read_text())
        assert document["traceEvents"]


class TestWorkerUtilization:
    def test_lanes_are_busy_over_the_span_the_log_covers(self, tmp_path):
        """A lane's utilization is its busy seconds over the span the
        log's timelines cover times its cores — so never above 100%,
        however many queries the busy seconds come from."""
        from repro.obs.events import read_event_log

        shark = _shark()
        path = tmp_path / "traced.jsonl"
        shark.enable_tracing()
        shark.enable_event_log(path)
        for threshold in (100, 200, 300, 400):
            shark.sql(
                "SELECT bucket, COUNT(*), SUM(value) FROM readings "
                f"WHERE value > {threshold} GROUP BY bucket"
            )
        shark.close_event_log()

        records = read_event_log(path)
        spans = [r for r in records if r["type"] == "span"]
        instants = [r for r in records if r["type"] == "instant"]
        first = min(
            [r["start"] for r in spans] + [r["ts"] for r in instants]
        )
        last = max([r["end"] for r in spans] + [r["ts"] for r in instants])
        capacity = (last - first) * records[0]["cores_per_worker"]
        busy: dict = {}
        for span in spans:
            if span["category"] == "task":
                busy[span["lane"]] = busy.get(span["lane"], 0.0) + (
                    span["end"] - span["start"]
                )

        store = HistoryStore.load(path)
        rows = {row["lane"]: row for row in store.worker_utilization()}
        assert set(rows) == set(busy) and len(rows) == 4
        for lane, row in rows.items():
            assert row["busy_seconds"] == pytest.approx(busy[lane])
            assert row["utilization"] == pytest.approx(
                busy[lane] / capacity
            )
            assert 0.0 < row["utilization"] <= 1.0
        # The longest single query is a far shorter span than the log's:
        # dividing by it (the old denominator) overstates every lane.
        longest = max(record.makespan() for record in store.queries)
        assert longest < (last - first) / 2

    def test_a_lane_can_keep_more_than_one_core_busy(self, tmp_path):
        """On 2 workers x 2 cores a lane runs two tasks at once, so it
        can read above 1/cores; the span times cores still caps it."""
        shark = _shark(num_workers=2, num_partitions=8)
        path = tmp_path / "two_by_two.jsonl"
        shark.enable_tracing()
        shark.enable_event_log(path)
        for threshold in (100, 200, 300, 400):
            shark.sql(
                "SELECT bucket, COUNT(*), SUM(value) FROM readings "
                f"WHERE value > {threshold} GROUP BY bucket"
            )
        shark.close_event_log()
        rows = HistoryStore.load(path).worker_utilization()
        assert len(rows) == 2
        assert max(row["utilization"] for row in rows) > 0.5
        assert all(row["utilization"] <= 1.0 for row in rows)


class TestGoldenReports:
    """Report text over the committed fixture log is pinned byte for
    byte (``tests/obs/golden/log.txt``; regenerate deliberately with
    ``PYTHONPATH=src python -m tests.obs.test_history``).  The log holds
    every record kind a report reads: memory watermarks and spills,
    serving fields and a shed query, cache lookups, operator profiles,
    a shuffle-skew record and flight dumps."""

    @pytest.mark.parametrize("kind", REPORT_KINDS)
    def test_fixture_reports_match_golden(self, kind):
        """One report kind's chunks, text and markdown; together the
        kinds cover the golden file whole."""
        rendered = _report_chunks(FIXTURE)
        golden = _golden_chunks()
        assert len(golden) == len(rendered)
        assert [
            text for text, (chunk_kind, _) in zip(golden, rendered)
            if chunk_kind == kind
        ] == [chunk for chunk_kind, chunk in rendered if chunk_kind == kind]

    def test_fixture_holds_every_record_kind(self):
        store = HistoryStore.load(FIXTURE)
        assert store.query("sort fixture").spills[0]["owner"] == "sort"
        assert store.query("count fixture").memory
        assert store.query("tenant fixture").tenant == "analytics"
        assert store.query("shed fixture").shed_reason == "brownout"
        assert store.query("warm fixture").cache_lookups[0]["outcome"] == (
            "hit"
        )
        assert store.operator_profiles()
        assert store.query("sort fixture").skew_records
        assert store.query("killed fixture").flight_only
        assert len(store.flight_dumps) == 1


class TestFlightOnly:
    def test_flight_dump_file_becomes_partial_query(self, tmp_path):
        """A killed query's flight dump, alone, is enough for a partial
        timeline in the history CLI (the acceptance criterion).  A dump
        file has no header, so a directory of dumps only has no schema
        version to refuse."""
        shark = _shark()
        assert not shark.tracer.enabled
        shark.tracer.flight.dump_dir = str(tmp_path)
        shark.sql("SELECT COUNT(*) FROM readings")  # fills the ring
        shark.tracer.flight_dump("cancelled", query="killed-query")
        shark.tracer.flight_dump("error")  # attributed to no query

        store = HistoryStore.load(tmp_path)
        assert len(store.files) == 2 and len(store.flight_dumps) == 1
        record = store.query("killed-query")
        assert record.flight_only
        assert record.status == "cancelled"
        assert record.timeline  # partial timeline reconstructed
        assert record.makespan() > 0.0
        report = store.report(query="killed-query")
        assert "killed-query" in report
        assert "flight" in report.lower()

    def test_worker_utilization_from_flight_spans(self, tmp_path):
        shark = _shark()
        shark.tracer.flight.dump_dir = str(tmp_path)
        shark.sql("SELECT COUNT(*) FROM readings")
        shark.tracer.flight_dump("error", query="dead")
        store = HistoryStore.load(tmp_path)
        busy = store.query("dead").worker_busy_seconds()
        assert busy and all(value > 0 for value in busy.values())


class TestTenantReport:
    """Serving aggregates: per-tenant utilization and per-tier latency
    percentiles rebuilt from the event log."""

    def _serving_log(self, tmp_path):
        from repro.obs.events import EventLogWriter
        from repro.obs.history import QueryRecord

        path = tmp_path / "serving.jsonl"
        with EventLogWriter(path, 4, 2) as log:
            for index in range(4):
                log.write_query(
                    QueryRecord(
                        name=f"dash-{index}",
                        status="ok",
                        started=float(index),
                        ended=float(index) + 0.5,
                        sim_seconds=0.5,
                        tenant="dashboards",
                        priority="interactive",
                    )
                )
            log.write_query(
                QueryRecord(
                    name="crawl-ok",
                    status="ok",
                    started=0.0,
                    ended=4.0,
                    sim_seconds=4.0,
                    tenant="crawler",
                    priority="best_effort",
                )
            )
            log.write_query(
                QueryRecord(
                    name="crawl-shed",
                    status="shed",
                    started=1.0,
                    ended=2.0,
                    sim_seconds=0.0,
                    tenant="crawler",
                    priority="best_effort",
                    shed_reason="brownout",
                )
            )
            log.write_query(
                QueryRecord(
                    name="crawl-bad",
                    status="error",
                    started=2.0,
                    ended=3.0,
                    sim_seconds=1.0,
                    tenant="crawler",
                    priority="best_effort",
                )
            )
            # The other two statuses lifecycle._STATUS writes.
            for name, status in (
                ("crawl-cancelled", "cancelled"),
                ("crawl-late", "deadline"),
            ):
                log.write_query(
                    QueryRecord(
                        name=name,
                        status=status,
                        started=3.0,
                        ended=3.5,
                        sim_seconds=0.25,
                        tenant="crawler",
                        priority="best_effort",
                    )
                )
            log.write_query(
                QueryRecord(name="untagged", status="ok", sim_seconds=1.0)
            )
        return path

    def test_tenant_rows_aggregate_outcomes(self, tmp_path):
        store = HistoryStore.load(self._serving_log(tmp_path))
        rows = {row["tenant"]: row for row in store.tenant_rows()}
        assert set(rows) == {"dashboards", "crawler"}  # untagged skipped
        dash = rows["dashboards"]
        assert dash["queries"] == 4
        assert dash["completed"] == 4
        assert dash["sim_seconds"] == pytest.approx(2.0)
        assert dash["latency_seconds"] == pytest.approx(2.0)
        crawler = rows["crawler"]
        assert crawler["queries"] == 5
        assert crawler["completed"] == 1
        assert crawler["shed"] == 1
        assert crawler["cancelled"] == 2  # by the user, by the deadline
        assert crawler["failed"] == 1
        # Every query lands in exactly one outcome column.
        for row in rows.values():
            assert row["queries"] == sum(
                row[column]
                for column in ("completed", "shed", "cancelled", "failed")
            )
        assert (
            "5 queries (1 ok, 1 shed, 2 cancelled, 1 failed)"
            in store.tenant_report()
        )

    def test_tier_latencies_only_count_completions(self, tmp_path):
        store = HistoryStore.load(self._serving_log(tmp_path))
        tiers = store.tier_latencies()
        assert sorted(tiers) == ["best_effort", "interactive"]
        assert tiers["interactive"] == pytest.approx([0.5] * 4)
        # The shed and failed crawler queries contribute nothing.
        assert tiers["best_effort"] == pytest.approx([4.0])

    def test_tenant_report_sections(self, tmp_path):
        store = HistoryStore.load(self._serving_log(tmp_path))
        report = store.tenant_report()
        assert "per-tenant utilization" in report
        assert "per-tier latency" in report
        assert "shed reasons" in report
        assert "brownout: 1" in report
        assert "p50" in report and "p95" in report and "p99" in report
        markdown = store.tenant_report(markdown=True)
        assert markdown.startswith("# ")

    def test_cli_tenants_section(self, tmp_path, capsys):
        path = self._serving_log(tmp_path)
        assert history_main([str(path), "tenants"]) == 0
        out = capsys.readouterr().out
        assert "tenant report" in out
        assert "dashboards" in out

    def test_percentiles_nearest_rank(self):
        """The tenant report's p50 / p95 / p99: nearest rank, no
        interpolation, over unsorted input."""
        values = [float(v) for v in range(100, 0, -1)]
        assert percentiles_of(values) == [50.0, 95.0, 99.0]
        assert percentiles_of(values, (1.0,)) == [100.0]
        assert percentiles_of([]) == [0.0, 0.0, 0.0]
        assert percentiles_of([7.0], (0.99,)) == [7.0]
        samples = [0.5, 1.5, 1.5, 2.0, 9.0, 42.0, 0.25]
        assert percentiles_of(samples, (0.01, 0.25, 0.5, 0.9)) == [
            0.25, 0.5, 1.5, 42.0,
        ]


if __name__ == "__main__":  # regenerate the golden report text
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_all_reports(FIXTURE))
