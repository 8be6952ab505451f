"""Cluster makespan simulation."""

import pytest

from repro.costmodel import (
    DEFAULT_HARDWARE,
    ClusterSimulator,
    HIVE,
    SHARK_MEM,
    StageCost,
    TaskCostVector,
)
from repro.costmodel.constants import MB, SHARK_NO_STRAGGLER, replace
from repro.obs import Tracer


def _stage(num_tasks, bytes_per_task=MB, source="memory"):
    return StageCost.uniform(
        "s",
        num_tasks,
        TaskCostVector(
            records_in=1000, bytes_in=bytes_per_task, source=source
        ),
    )


class TestMakespan:
    def test_single_wave_parallelism(self):
        sim = ClusterSimulator(num_nodes=10, engine=SHARK_MEM, seed=1)
        one = sim.simulate([_stage(1)]).total_seconds
        eighty = sim.simulate([_stage(80)]).total_seconds
        # 80 tasks on 80 slots: one wave, similar to one task (straggler
        # noise aside).
        assert eighty < one * 3

    def test_waves_add_up(self):
        sim = ClusterSimulator(
            num_nodes=1, engine=SHARK_MEM, seed=1, speculation=False
        )
        sim = ClusterSimulator(1, SHARK_NO_STRAGGLER, seed=1)
        one_wave = sim.simulate([_stage(8)]).total_seconds
        two_waves = sim.simulate([_stage(16)]).total_seconds
        assert two_waves == pytest.approx(2 * one_wave, rel=0.01)

    def test_stages_sequential(self):
        sim = ClusterSimulator(10, SHARK_NO_STRAGGLER, seed=1)
        single = sim.simulate([_stage(10)]).total_seconds
        double = sim.simulate([_stage(10), _stage(10)]).total_seconds
        assert double == pytest.approx(2 * single, rel=0.01)

    def test_deterministic_given_seed(self):
        sim = ClusterSimulator(10, SHARK_MEM, seed=5)
        assert (
            sim.simulate([_stage(100)]).total_seconds
            == sim.simulate([_stage(100)]).total_seconds
        )

    def test_empty_stage(self):
        sim = ClusterSimulator(4)
        cost = sim.simulate([StageCost("empty", [])])
        assert cost.total_seconds == 0.0

    def test_rejects_bad_cluster(self):
        with pytest.raises(ValueError):
            ClusterSimulator(0)

    def test_stage_uniform_validation(self):
        with pytest.raises(ValueError):
            StageCost.uniform("s", 0, TaskCostVector())


class TestEngineContrasts:
    def test_hive_task_overhead_visible(self):
        shark_sim = ClusterSimulator(10, SHARK_MEM, seed=2)
        hive_sim = ClusterSimulator(10, HIVE, seed=2)
        stage = [_stage(400, bytes_per_task=MB, source="disk")]
        shark_s = shark_sim.simulate(stage).total_seconds
        hive_s = hive_sim.simulate(stage).total_seconds
        # 400 tiny tasks on 80 slots: Hadoop pays ~5 waves x launch+heartbeat.
        assert hive_s > shark_s * 10

    def test_heartbeat_quantizes_hive_waves(self):
        profile = replace(
            HIVE, straggler_fraction=0.0, task_launch_overhead_s=0.0
        )
        sim = ClusterSimulator(1, profile, seed=1)
        cost = sim.simulate([_stage(16, bytes_per_task=1000, source="disk")])
        # Second wave starts on a 3 s heartbeat boundary.
        assert cost.total_seconds >= 3.0

    def test_speculation_caps_stragglers(self):
        always_slow = replace(
            SHARK_MEM, straggler_fraction=1.0, straggler_slowdown=100.0
        )
        with_spec = ClusterSimulator(
            2, always_slow, seed=3, speculation=True
        ).simulate([_stage(16, bytes_per_task=64 * MB)])
        without = ClusterSimulator(
            2, always_slow, seed=3, speculation=False
        ).simulate([_stage(16, bytes_per_task=64 * MB)])
        assert with_spec.total_seconds < without.total_seconds / 10

    def test_trace_has_one_span_per_task_on_its_slot(self):
        """The benches' ``--trace-out`` path: each simulated task is a
        ``sim`` span on its slot's lane, and a stage's last span ends
        its simulated seconds after the stage started."""
        tracer = Tracer(enabled=True)
        stages = [
            _stage(40),
            StageCost.uniform(
                "reduce", 6, TaskCostVector(shuffle_read_bytes=MB)
            ),
        ]
        cost = ClusterSimulator(2, SHARK_MEM, seed=3, tracer=tracer).simulate(
            stages
        )
        spans = tracer.trace.spans_in_category("sim")
        assert len(spans) == 46
        cores = DEFAULT_HARDWARE.cores_per_node
        lanes = {f"sim node {n} core {c}" for n in range(2) for c in range(cores)}
        start = 0.0
        for stage, result in zip(stages, cost.stages):
            mine = [span for span in spans if span.args["stage"] == stage.name]
            assert sorted(span.args["task"] for span in mine) == list(
                range(len(stage.tasks))
            )
            assert {span.lane for span in mine} <= lanes
            assert min(span.start for span in mine) == pytest.approx(start)
            end = max(span.end for span in mine)
            assert end - start == pytest.approx(result.seconds)
            start += result.seconds
        for lane in lanes:
            on_lane = sorted(
                (span.start, span.end) for span in spans if span.lane == lane
            )
            assert all(a[1] <= b[0] for a, b in zip(on_lane, on_lane[1:]))

    def test_describe_output(self):
        sim = ClusterSimulator(4, SHARK_MEM, seed=1)
        cost = sim.simulate([_stage(4)])
        text = cost.describe()
        assert "engine=shark" in text
        assert "stage" in text
