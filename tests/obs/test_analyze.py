"""The executed clock: ``analyze_profiles`` prices each executed task once,
from its own cost vector, and list-schedules each stage onto the
session's ``num_workers x cores_per_worker`` slots.

A stage's simulated seconds therefore depend on its own tasks only, not
on how many tasks the query priced before it.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.costmodel.constants import DEFAULT_HARDWARE, SHARK_NO_STRAGGLER
from repro.costmodel.models import estimate_task_seconds
from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.obs.analyze import analyze_profiles

WORKERS, CORES = 2, 2
SLOTS = WORKERS * CORES


def _task(records: int) -> TaskMetrics:
    return TaskMetrics(
        records_in=records,
        bytes_in=records * 16,
        records_out=records,
        source="memory",
    )


def _stage(stage_id: int, name: str, records: list[int]) -> StageProfile:
    return StageProfile(
        stage_id=stage_id,
        name=name,
        is_shuffle_map=False,
        tasks=[_task(count) for count in records],
    )


def _priced(*stages: StageProfile) -> list[float]:
    analysis = analyze_profiles(
        "",
        [QueryProfile(job_id=0, stages=list(stages))],
        num_workers=WORKERS,
        cores_per_worker=CORES,
    )
    return [stage.sim_seconds for stage in analysis.stages]


def _task_seconds(records: int) -> float:
    hardware = replace(DEFAULT_HARDWARE, cores_per_node=CORES)
    return estimate_task_seconds(
        _task(records).to_cost_vector(), SHARK_NO_STRAGGLER, hardware
    )


def test_a_stage_costs_the_same_wherever_it_sits():
    probe = _stage(9, "probe", [40_000, 40_000, 40_000])
    (alone,) = _priced(probe)
    after_one = _priced(_stage(1, "scan", [100]), probe)[-1]
    after_three = _priced(_stage(1, "scan", [100, 100, 100]), probe)[-1]
    assert alone == after_one == after_three


@pytest.mark.parametrize("k", range(2, SLOTS + 1))
def test_k_equal_tasks_within_the_slots_cost_one_task(k):
    (seconds,) = _priced(_stage(0, "map", [25_000] * k))
    assert seconds == _task_seconds(25_000)


def test_a_stage_within_the_slots_is_order_free():
    # Beyond the slot count list scheduling is order-dependent (on 2
    # slots, [1, 1, 2] takes 3 and [2, 1, 1] takes 2), so only a stage
    # that fits the slots is order-free.
    records = [1_000, 30_000, 90_000, 250_000]
    assert len(records) <= SLOTS
    priced = {
        _priced(_stage(0, "map", list(order)))[0]
        for order in itertools.permutations(records)
    }
    assert priced == {_task_seconds(250_000)}
