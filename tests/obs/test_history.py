"""HistoryStore: loading, reports, flight-only queries, Perfetto export."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.obs.history import HistoryStore, main as history_main
from repro.obs.events import EventLogSchemaError


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


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURE_VERSIONS = (2, 3, 4, 5)


def _all_reports(path) -> str:
    """Every history report over one log as one text: the five report
    kinds, then ``--query`` for each query, in text and in markdown."""
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
                f"#### {kind} ({mode})\n{render(markdown=markdown)}"
            )
        for record in store.queries:
            chunks.append(
                f"#### --query {record.query_id} ({mode})\n"
                + store.report(markdown=markdown, query=record.query_id)
            )
    return "\n\n".join(chunks) + "\n"


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

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {
                    "type": "header",
                    "seq": 0,
                    "version": 99,
                    "workers": 1,
                    "cores_per_worker": 1,
                }
            )
            + "\n"
        )
        with pytest.raises(EventLogSchemaError, match="version"):
            HistoryStore.load(path)

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
    """Report text over the committed v2-v5 fixture logs is pinned byte
    for byte (``tests/obs/golden``; regenerate deliberately with
    ``PYTHONPATH=src python -m tests.obs.test_history``)."""

    @pytest.mark.parametrize("version", FIXTURE_VERSIONS)
    def test_fixture_reports_match_golden(self, version):
        golden = GOLDEN / f"log_v{version}.txt"
        assert (
            _all_reports(FIXTURES / f"log_v{version}.jsonl")
            == golden.read_text()
        )


class TestFlightOnly:
    def test_flight_dump_file_becomes_partial_query(self, tmp_path):
        """A killed query's flight dump, alone, is enough for a partial
        timeline in the history CLI (the acceptance criterion)."""
        shark = _shark()
        assert not shark.tracer.enabled
        shark.tracer.flight.dump_dir = str(tmp_path)
        shark.sql("SELECT COUNT(*) FROM readings")  # fills the ring
        shark.tracer.flight_dump("cancelled", query="killed-query")

        store = HistoryStore.load(tmp_path)
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
    """Schema v4 serving aggregates: per-tenant utilization and per-tier
    latency percentiles rebuilt from the event log."""

    def _v4_log(self, tmp_path):
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
        store = HistoryStore.load(self._v4_log(tmp_path))
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
        store = HistoryStore.load(self._v4_log(tmp_path))
        tiers = store.tier_latencies()
        assert sorted(tiers) == ["best_effort", "interactive"]
        assert tiers["interactive"] == pytest.approx([0.5] * 4)
        # The shed and failed crawler queries contribute nothing.
        assert tiers["best_effort"] == pytest.approx([4.0])

    def test_tenant_report_sections(self, tmp_path):
        store = HistoryStore.load(self._v4_log(tmp_path))
        report = store.tenant_report()
        assert "per-tenant utilization" in report
        assert "per-tier latency" in report
        assert "shed reasons" in report
        assert "brownout: 1" in report
        assert "p50" in report and "p95" in report and "p99" in report
        markdown = store.tenant_report(markdown=True)
        assert markdown.startswith("# ")

    def test_cli_tenants_section(self, tmp_path, capsys):
        path = self._v4_log(tmp_path)
        assert history_main([str(path), "tenants"]) == 0
        out = capsys.readouterr().out
        assert "tenant report" in out
        assert "dashboards" in out

    def test_percentiles_nearest_rank(self):
        from repro.obs.history import percentile

        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 99.0) == 7.0

    def test_percentile_delegates_to_the_shared_helper(self):
        """PR 10 satellite: ``history.percentile`` and
        ``metrics.percentiles_of`` must be the same nearest-rank math —
        the former is a thin wrapper, not a reimplementation."""
        from repro.obs.history import percentile
        from repro.obs.metrics import percentiles_of

        samples = [0.5, 1.5, 1.5, 2.0, 9.0, 42.0, 0.25]
        for pct in (1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0):
            assert percentile(sorted(samples), pct) == (
                percentiles_of(samples, (pct / 100.0,))[0]
            )
        # Odd sample counts and ties hit the same ranks in both.
        assert percentiles_of(samples)[0] == percentile(
            sorted(samples), 50.0
        )


if __name__ == "__main__":  # regenerate the golden report texts
    GOLDEN.mkdir(exist_ok=True)
    for _version in FIXTURE_VERSIONS:
        (GOLDEN / f"log_v{_version}.txt").write_text(
            _all_reports(FIXTURES / f"log_v{_version}.jsonl")
        )
