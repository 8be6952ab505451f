"""Tracer, VirtualClock, and Chrome-trace export unit tests."""

from __future__ import annotations

import json

from repro.costmodel.models import TaskCostVector
from repro.obs import Tracer, VirtualClock
from repro.obs.clock import DRIVER_LANE


class TestVirtualClock:
    def test_lanes_advance_independently(self):
        clock = VirtualClock()
        start0, end0 = clock.advance_lane(0, 2.0)
        start1, end1 = clock.advance_lane(1, 1.0)
        assert (start0, end0) == (0.0, 2.0)
        assert (start1, end1) == (0.0, 1.0)
        assert clock.now() == 2.0

    def test_not_before_delays_start(self):
        clock = VirtualClock()
        start, end = clock.advance_lane(0, 1.0, not_before=5.0)
        assert (start, end) == (5.0, 6.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance_lane(0, 3.0)
        clock.reset()
        assert clock.now() == 0.0
        assert clock.lane_time(0) == 0.0


class TestLaneSlots:
    """A lane runs one task per registered core."""

    def _two_cores(self) -> VirtualClock:
        clock = VirtualClock()
        clock.set_cores(0, 2)
        return clock

    def test_two_tasks_overlap_and_a_third_waits_for_the_earlier_end(self):
        clock = self._two_cores()
        assert clock.advance_lane(0, 3.0) == (0.0, 3.0)
        assert clock.advance_lane(0, 1.0) == (0.0, 1.0)
        assert clock.advance_lane(0, 2.0) == (1.0, 3.0)

    def test_not_before_still_holds(self):
        clock = self._two_cores()
        clock.advance_lane(0, 1.0)
        assert clock.advance_lane(0, 1.0, not_before=5.0) == (5.0, 6.0)
        assert clock.advance_lane(0, 1.0, not_before=0.5) == (1.0, 2.0)

    def test_ties_go_to_the_lowest_slot(self):
        clock = self._two_cores()
        clock.advance_lane(0, 0.0)  # slot 0, still free at 0.0
        clock.advance_lane(0, 0.0)  # slot 0 again, not slot 1
        clock.advance_lane(0, 4.0)  # slot 0: now busy to 4.0
        assert clock.advance_lane(0, 1.0) == (0.0, 1.0)  # slot 1
        assert clock.advance_lane(0, 1.0) == (1.0, 2.0)  # slot 1 again

    def test_lane_time_is_the_earliest_free_slot(self):
        clock = self._two_cores()
        clock.advance_lane(0, 3.0)
        assert clock.lane_time(0) == 0.0
        clock.advance_lane(0, 1.0)
        assert clock.lane_time(0) == 1.0
        assert clock.now() == 3.0

    def test_busy_time_sums_the_slots(self):
        clock = self._two_cores()
        clock.advance_lane(0, 3.0)
        clock.advance_lane(0, 1.0, not_before=2.0)
        assert clock.busy_time(0) == 4.0

    def test_reset_rewinds_the_times_and_keeps_the_slot_counts(self):
        clock = self._two_cores()
        clock.advance_lane(0, 3.0)
        clock.advance_lane(0, 3.0)
        clock.reset()
        assert (clock.lane_time(0), clock.busy_time(0)) == (0.0, 0.0)
        assert clock.advance_lane(0, 1.0) == (0.0, 1.0)
        assert clock.advance_lane(0, 1.0) == (0.0, 1.0)

    def test_an_unregistered_lane_stays_serial(self):
        clock = self._two_cores()
        assert clock.advance_lane(DRIVER_LANE, 1.0) == (0.0, 1.0)
        assert clock.advance_lane(DRIVER_LANE, 1.0) == (1.0, 2.0)
        assert clock.advance_lane(1, 1.0) == (0.0, 1.0)
        assert clock.advance_lane(1, 1.0) == (1.0, 2.0)


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        span = tracer.begin_span("job", "job")
        tracer.end_span(span)
        tracer.task_span("t", lane=0, seconds=1.0)
        tracer.instant("e", "cluster")
        assert span is None
        assert len(tracer.trace) == 0

    def test_metrics_live_while_disabled(self):
        tracer = Tracer()
        tracer.metrics.inc("tasks.launched")
        assert tracer.metrics.value("tasks.launched") == 1

    def test_span_nesting(self):
        tracer = Tracer(enabled=True)
        job = tracer.begin_span("job 0", "job")
        stage = tracer.begin_span("stage 0", "stage")
        tracer.end_span(stage)
        tracer.end_span(job)
        assert stage.parent_id == job.span_id
        assert job.parent_id is None
        assert tracer.trace.children_of(job) == [stage]

    def test_task_span_advances_lane_and_times_nest(self):
        tracer = Tracer(enabled=True)
        with tracer.span("stage 0", "stage") as stage:
            first = tracer.task_span("t0", lane=0, seconds=2.0)
            second = tracer.task_span("t1", lane=0, seconds=1.0)
        assert first.start == stage.start
        assert second.start == first.end  # same lane: serialized
        assert stage.end >= second.end

    def test_task_span_cost_vector_duration(self):
        tracer = Tracer(enabled=True)
        vector = TaskCostVector(records_in=1000.0, bytes_in=1 << 20)
        span = tracer.task_span("t", lane=0, vector=vector)
        assert span.duration > 0.0
        assert span.duration == tracer.estimate_seconds(vector)

    def test_end_span_heals_unbalanced_exits(self):
        tracer = Tracer(enabled=True)
        outer = tracer.begin_span("outer", "job")
        inner = tracer.begin_span("inner", "stage")
        # An exception path skipped inner's end_span.
        tracer.end_span(outer)
        assert inner.end is not None
        assert tracer.begin_span("next", "job").parent_id is None

    def test_reset_keeps_metrics(self):
        tracer = Tracer(enabled=True)
        tracer.metrics.inc("x")
        with tracer.span("s", "stage"):
            pass
        tracer.reset()
        assert len(tracer.trace) == 0
        assert tracer.metrics.value("x") == 1


class TestChromeTrace:
    def _traced(self) -> Tracer:
        tracer = Tracer(enabled=True)
        with tracer.span("job 0", "job"):
            tracer.task_span("task", lane=0, seconds=1.0)
            tracer.task_span("task", lane=1, seconds=1.0)
            tracer.instant("worker.kill", "cluster", lane=1, worker_id=1)
        return tracer

    def test_document_structure(self):
        document = self._traced().trace.to_chrome_trace(
            metadata={"demo": "unit"}
        )
        assert document["displayTimeUnit"] == "ms"
        assert document["metadata"] == {"demo": "unit"}
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_one_thread_per_lane_driver_first(self):
        document = self._traced().trace.to_chrome_trace()
        threads = [
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        ]
        assert threads == ["driver", "worker 0", "worker 1"]

    def test_timestamps_are_simulated_microseconds(self):
        document = self._traced().trace.to_chrome_trace()
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        task_spans = [e for e in spans if e["name"] == "task"]
        assert all(e["dur"] == 1e6 for e in task_spans)  # 1 sim-second

    def test_json_serializable(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().trace.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) > 0
