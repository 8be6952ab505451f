"""MetricsRegistry primitives and the engine-metrics rollups."""

from __future__ import annotations

import pytest

from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.obs import MetricsRegistry
from repro.obs.analyze import render_query
from repro.obs.planquality import (
    OperatorStamp,
    actual_rows_from_profiles,
    build_operator_profiles,
)
from repro.obs.record import QueryRecord


class TestMetricsRegistry:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.inc("tasks.launched")
        registry.inc("tasks.launched", 4)
        assert registry.value("tasks.launched") == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("tasks.launched", -1)

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("workers.live", 4)
        registry.set_gauge("workers.live", 3)
        assert registry.value("workers.live") == 3

    def test_histogram_summarizes(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("stage.seconds", value)
        histogram = registry.histogram("stage.seconds")
        assert histogram.count == 3
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_missing_metric_reads_default(self):
        registry = MetricsRegistry()
        assert registry.value("never.recorded") == 0.0
        assert registry.value("never.recorded", default=-1.0) == -1.0

    def test_snapshot_is_sorted_and_detached(self):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        registry.inc("a.first")
        assert snapshot["counters"]["a.first"] == 1.0

    def test_describe_empty(self):
        assert "no metrics" in MetricsRegistry().describe()

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("x")
        registry.set_gauge("y", 1)
        registry.observe("z", 1.0)
        registry.reset()
        assert len(registry) == 0


def _task(**kwargs) -> TaskMetrics:
    metrics = TaskMetrics(stage_id=0, partition=0, worker_id=0)
    for key, value in kwargs.items():
        setattr(metrics, key, value)
    return metrics


class TestProfileRollups:
    def test_stage_shuffle_bytes_and_attempts(self):
        stage = StageProfile(stage_id=0, name="s", is_shuffle_map=True)
        stage.tasks.append(
            _task(shuffle_write_bytes=100, shuffle_read_bytes=10)
        )
        stage.tasks.append(
            _task(shuffle_write_bytes=50, shuffle_read_bytes=5, attempts=3)
        )
        assert stage.shuffle_write_bytes == 150
        assert stage.shuffle_read_bytes == 15
        assert stage.total_attempts == 4

    def test_query_profile_rolls_up_stages(self):
        profile = QueryProfile(job_id=7)
        for stage_id, write in ((0, 100), (1, 20)):
            stage = StageProfile(
                stage_id=stage_id, name=f"s{stage_id}", is_shuffle_map=True
            )
            stage.tasks.append(
                _task(shuffle_write_bytes=write, shuffle_read_bytes=write // 2)
            )
            profile.stages.append(stage)
        assert profile.shuffle_write_bytes == 120
        assert profile.shuffle_read_bytes == 60
        assert profile.total_attempts == 2

    def test_describe_includes_shuffle_bytes_and_attempts(self):
        profile = QueryProfile(job_id=1)
        stage = StageProfile(stage_id=3, name="agg", is_shuffle_map=True)
        stage.tasks.append(
            _task(
                records_in=10,
                records_out=4,
                shuffle_write_bytes=256,
                shuffle_read_bytes=64,
                attempts=2,
            )
        )
        profile.stages.append(stage)
        text = render_query(QueryRecord(profiles=[profile]))
        assert "shuffle read 64B" in text
        assert "shuffle write 256B" in text
        assert "(2 attempts)" in text

    def test_describe_lists_operator_rows_in_stamp_order(self):
        """Per-operator actual row counts surface in EXPLAIN ANALYZE's
        plan-quality section, ordered by stamp id (not alphabetically —
        ``#10`` sorts after ``#9``)."""
        profile = QueryProfile(job_id=0)
        stage = StageProfile(stage_id=0, name="s", is_shuffle_map=False)
        stage.tasks.append(
            _task(operator_rows={"filter#9": 40, "project#10": 40})
        )
        stage.tasks.append(_task(operator_rows={"scan(t)#0": 100}))
        profile.stages.append(stage)
        assert stage.operator_rows == {
            "scan(t)#0": 100, "filter#9": 40, "project#10": 40,
        }
        stamps = [
            OperatorStamp("scan(t)", "vectorized", 0),
            OperatorStamp("filter", "vectorized", 9),
            OperatorStamp("project", "vectorized", 10),
        ]
        operators = build_operator_profiles(
            stamps, actual_rows_from_profiles([profile])
        )
        text = render_query(
            QueryRecord(profiles=[profile], operator_profiles=operators)
        )
        scan = text.index("scan(t) [vectorized]: est ? (none) / actual 100")
        filtered = text.index("filter [vectorized]: est ? (none) / actual 40")
        assert scan < filtered < text.index("project [vectorized]")

    def test_describe_omits_operator_rows_when_absent(self):
        profile = QueryProfile(job_id=0)
        stage = StageProfile(stage_id=0, name="s", is_shuffle_map=False)
        stage.tasks.append(_task(records_in=5))
        profile.stages.append(stage)
        assert actual_rows_from_profiles([profile]) == {}
        text = render_query(QueryRecord(profiles=[profile]))
        assert "plan quality" not in text
