"""Query-doctor tests: taxonomy checks, ranking, pairing, and the CLI.

Synthetic :class:`QueryRecord` pairs exercise each root-cause check in
isolation; a live two-run diff (uncapped vs a memory cap over the same
tiny corpus) proves the end-to-end contract the CI smoke job greps for —
the deliberate regression is attributed to ``spill-appeared`` first, not
to the generic stage-slowdown fallback.
"""

from __future__ import annotations

import pytest

from repro import SharkContext
from repro.baselines.hive import _JobPlanner
from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.obs import doctor
from repro.obs.doctor import (
    DoctorReport,
    QueryDiagnosis,
    diagnose,
    diagnose_logs,
    diagnose_pair,
)
from repro.obs.history import HistoryStore, QueryRecord
from repro.sql.planner import PhysicalPlanner
from repro.workloads import tpch


def _record(**kwargs) -> QueryRecord:
    base = dict(query_id="q0000", name="q", status="ok", sim_seconds=1.0)
    base.update(kwargs)
    return QueryRecord(**base)


_SPILL = {"owner": "sort", "events": 1, "bytes": 4096, "runs": 1}


def _job(*stages: tuple[str, int]) -> list[QueryProfile]:
    """One job of ``(name, records)`` result stages, each one task that
    reads its records from memory: the doctor prices a stage from its
    tasks, so more records make a slower stage."""
    return [
        QueryProfile(
            job_id=0,
            stages=[
                StageProfile(
                    stage_id,
                    name,
                    False,
                    tasks=[
                        TaskMetrics(
                            records_in=records,
                            bytes_in=records * 16,
                            source="memory",
                        )
                    ],
                )
                for stage_id, (name, records) in enumerate(stages)
            ],
        )
    ]


class TestTaxonomy:
    def test_spill_appeared(self):
        baseline = _record(profiles=_job(("sort", 10_000)))
        current = _record(spills=[_SPILL], profiles=_job(("sort", 40_000)))
        findings = diagnose_pair(baseline, current)
        assert findings[0].category == "spill-appeared"
        assert "4096" in findings[0].summary
        # The generic fallback still reports, but ranked below.
        assert findings[-1].category == "stage-slowdown"
        # Symmetric runs produce no spill finding.
        assert diagnose_pair(current, current) == []

    def test_cache_hit_to_miss(self):
        baseline = _record(
            cache_lookups=[{"layer": "result", "outcome": "hit"}]
        )
        current = _record(
            cache_lookups=[{"layer": "result", "outcome": "miss"}]
        )
        findings = diagnose_pair(baseline, current)
        assert findings[0].category == "cache-miss"
        # The opposite direction (miss -> hit) is an improvement, not a
        # root cause.
        assert diagnose_pair(current, baseline) == []

    def test_skew_growth(self):
        baseline = _record(
            skew_records=[
                {"shuffle_id": 0, "row_skew": 1.1, "heavy_keys": []}
            ]
        )
        current = _record(
            skew_records=[
                {
                    "shuffle_id": 0,
                    "row_skew": 3.8,
                    "straggler_partition": 2,
                    "heavy_keys": [["'A'", 900]],
                }
            ]
        )
        findings = diagnose_pair(baseline, current)
        assert findings[0].category == "skew-growth"
        assert "straggler partition 2" in findings[0].evidence[0]
        assert "'A'=900" in findings[0].evidence[0]
        assert diagnose_pair(baseline, baseline) == []

    def test_plan_shape_change(self):
        def operators(*names):
            return [
                {"operator": name, "op_id": op_id, "mode": "vectorized"}
                for op_id, name in enumerate(names)
            ]

        baseline = _record(
            operator_profiles=operators("scan(t)", "join.broadcast")
        )
        current = _record(
            operator_profiles=operators("scan(t)", "join.shuffle")
        )
        findings = diagnose_pair(baseline, current)
        assert findings[0].category == "plan-change"
        assert "join.broadcast" in findings[0].evidence[0]

    def test_estimate_drift(self):
        baseline = _record(
            operator_profiles=[
                {"operator": "filter", "q_error": 1.5, "est_rows": 10,
                 "est_source": "guess", "actual_rows": 15}
            ]
        )
        current = _record(
            operator_profiles=[
                {"operator": "filter", "q_error": 40.0, "est_rows": 10,
                 "est_source": "guess", "actual_rows": 400}
            ]
        )
        findings = diagnose_pair(baseline, current)
        assert findings[0].category == "estimate-drift"
        assert "x40.0" in findings[0].summary

    def test_stage_slowdown_is_the_fallback(self):
        baseline = _record(profiles=_job(("scan", 10_000), ("agg", 10_000)))
        current = _record(profiles=_job(("scan", 10_000), ("agg", 90_000)))
        findings = diagnose_pair(baseline, current)
        assert [f.category for f in findings] == ["stage-slowdown"]
        assert "stage 1 (agg)" in findings[0].summary

    def test_an_earlier_stage_does_not_move_a_common_stage(self):
        """Only the scan's task count differs; the aggregate's tasks are
        identical, so its priced seconds are too."""

        def priced(scan_tasks: int) -> QueryRecord:
            def stage(stage_id, name, count, records):
                tasks = [
                    TaskMetrics(
                        records_in=records, bytes_in=records * 16,
                        source="memory",
                    )
                    for _ in range(count)
                ]
                return StageProfile(stage_id, name, False, tasks=tasks)

            record = _record(
                profiles=[
                    QueryProfile(
                        job_id=0,
                        stages=[
                            stage(0, "scan", scan_tasks, 500),
                            stage(1, "agg", 3, 20_000),
                        ],
                    )
                ],
                header={"workers": 2, "cores_per_worker": 2},
            )
            record.sim_seconds = record.analyze().total_sim_seconds
            return record

        baseline, current = priced(scan_tasks=2), priced(scan_tasks=1)
        assert (
            baseline.analyze().stages[1].sim_seconds
            == current.analyze().stages[1].sim_seconds
        )
        assert not [
            finding
            for finding in diagnose_pair(baseline, current)
            if finding.category == "stage-slowdown"
        ]


class TestReport:
    def _store(self, records) -> HistoryStore:
        store = HistoryStore()
        store.queries.extend(records)
        return store

    def test_pairs_by_name_and_reports_unmatched(self):
        baseline = self._store(
            [_record(name="a"), _record(name="only-baseline")]
        )
        current = self._store(
            [_record(name="a", sim_seconds=2.0),
             _record(name="only-current")]
        )
        report = diagnose(baseline, current)
        assert [d.name for d in report.diagnoses] == ["a"]
        assert set(report.unmatched) == {"only-baseline", "only-current"}
        assert report.regressed()[0].slowdown == pytest.approx(1.0)

    def test_a_query_shed_on_both_sides_is_counted_not_paired(self):
        baseline = self._store([
            _record(name="a"),
            _record(name="shed", status="shed", sim_seconds=0.0),
            _record(name="shed-once", status="shed", sim_seconds=0.0),
        ])
        current = self._store([
            _record(name="a"),
            _record(name="shed", status="shed", sim_seconds=0.0),
            _record(name="shed-once", sim_seconds=1.0),
        ])
        report = diagnose(baseline, current)
        assert [d.name for d in report.diagnoses] == ["a", "shed-once"]
        assert report.shed_both == 1 and not report.unmatched
        rendered = report.render()
        assert "2 paired queries" in rendered
        assert "1 query shed in both runs" in rendered
        assert "shed: " not in rendered

    def test_top_cause_votes_by_regressed_queries(self):
        report = DoctorReport(
            baseline_path="a", current_path="b",
            regression_threshold=0.25,
        )
        for index in range(3):
            diagnosis = QueryDiagnosis(
                name=f"q{index}", baseline_seconds=1.0,
                current_seconds=2.0,
            )
            diagnosis.findings = diagnose_pair(
                _record(), _record(spills=[_SPILL])
            )
            report.diagnoses.append(diagnosis)
        # One non-regressed query must not vote.
        report.diagnoses.append(
            QueryDiagnosis(
                name="ok", baseline_seconds=1.0, current_seconds=1.0
            )
        )
        assert report.top_cause() == ("spill-appeared", 3)
        rendered = report.render()
        assert "top root cause across corpus: spill-appeared (3 queries)" in (
            rendered
        )
        assert "[REGRESSED]" in rendered and "[ok]" in rendered

    def test_findings_counter_feeds_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        baseline = self._store([_record(name="a")])
        current = self._store(
            [_record(name="a", sim_seconds=2.0, spills=[_SPILL])]
        )
        metrics = MetricsRegistry()
        diagnose(baseline, current, metrics=metrics)
        assert metrics.value("doctor.findings") >= 1


class TestLiveDiff:
    """The CI smoke contract, at unit-test scale: diff an uncapped log
    against a log of the same corpus under a memory cap that makes the
    GROUP BY's partial aggregates spill."""

    QUERIES = (
        "SELECT COUNT(*) FROM lineitem",
        tpch.AGGREGATION_QUERIES["max"],
    )
    CAP = 4096

    def _run(self, tmp_path, memory_cap=None):
        shark = SharkContext(
            num_workers=2,
            cores_per_worker=2,
            memory_per_worker_bytes=memory_cap,
        )
        data = tpch.generate_lineitem(4000)
        shark.create_table("lineitem", data.schema, cached=True)
        shark.load_rows("lineitem", data.rows)
        path = tmp_path / f"cap_{memory_cap}.jsonl"
        shark.enable_event_log(path, source="test")
        for text in self.QUERIES:
            shark.sql(text)
        shark.close_event_log()
        return path

    def test_memory_cap_spill_is_top_root_cause(self, tmp_path):
        log_uncapped = self._run(tmp_path)
        log_capped = self._run(tmp_path, self.CAP)
        report = diagnose_logs(
            log_uncapped, log_capped, regression_threshold=0.0
        )
        assert len(report.diagnoses) == len(self.QUERIES)
        regressed = report.regressed()
        assert regressed, "spilling must cost simulated seconds"
        for diagnosis in regressed:
            assert diagnosis.top_category == "spill-appeared"
        top = report.top_cause()
        assert top is not None and top[0] == "spill-appeared"

    def test_a_merge_moved_to_the_driver_is_no_cause(
        self, tmp_path, monkeypatch
    ):
        """The global aggregate's one-task reduce stage is gone (its
        partials merge on the driver, DESIGN §17): an intended plan
        change, and one that renumbers every later stage.  A log with
        the stage diffed against one without blames nothing, with every
        pair examined."""
        current = self._run(tmp_path)
        (tmp_path / "exchange").mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(
                PhysicalPlanner,
                "_global_partials",
                _JobPlanner._global_partials,
            )
            baseline = self._run(tmp_path / "exchange")
        report = diagnose_logs(baseline, current, regression_threshold=-1.0)
        merged, grouped = report.diagnoses
        assert merged.current_seconds < merged.baseline_seconds
        assert grouped.current_seconds == grouped.baseline_seconds
        assert [d.findings for d in report.diagnoses] == [[], []]

    def test_cli_writes_report(self, tmp_path, capsys):
        log_uncapped = self._run(tmp_path)
        log_capped = self._run(tmp_path, self.CAP)
        out = tmp_path / "doctor.txt"
        code = doctor.main(
            [str(log_uncapped), str(log_capped), "--threshold", "0.0",
             "--report", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "query doctor:" in printed
        assert "spill-appeared" in printed
        assert out.read_text().strip() == printed.strip()

    def test_cli_missing_log_errors(self, tmp_path, capsys):
        code = doctor.main(
            [str(tmp_path / "nope.jsonl"), str(tmp_path / "nope2.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
