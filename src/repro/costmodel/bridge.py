"""Bridge: executed-run metrics -> cluster-scale StageCosts.

The benchmark harness runs every query for real on small local data, then
scales the measured per-stage volumes up to the paper's dataset sizes and
asks :class:`~repro.costmodel.simulator.ClusterSimulator` for the makespan
on 100 virtual nodes.  Task counts are re-derived at cluster scale: map
stages get one task per input block (128 MB), reduce stages get the
configured reducer count (hand-tuned for Hive, PDE-chosen for Shark) —
which is exactly the knob Figure 13 sweeps.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from repro.baselines.mapreduce import JobStats
from repro.costmodel.constants import MB
from repro.costmodel.models import (
    SOURCE_DISK,
    SOURCE_GENERATED,
    SOURCE_MEMORY,
    SOURCE_SHUFFLE,
    TaskCostVector,
)
from repro.costmodel.simulator import StageCost
from repro.engine.metrics import QueryProfile, StageProfile
from repro.workloads.base import Dataset

#: HDFS block size: one map task per block at cluster scale.
BLOCK_BYTES = 128 * MB
#: Upper bound on tasks per stage in the scaled model.
MAX_TASKS = 200_000
#: Row-count floor on map-task sizing: compressed columnar bytes can make
#: a block look small while holding millions of rows.
RECORDS_PER_TASK = 1_000_000


def combined_scale(datasets: list[Dataset]) -> float:
    """One blended local->cluster scale factor for a multi-table query."""
    local = sum(dataset.local_bytes for dataset in datasets)
    represented = sum(dataset.represented_bytes for dataset in datasets)
    if local == 0:
        return 1.0
    return represented / local


def split_stage(
    name: str,
    totals: TaskCostVector,
    num_tasks: int,
) -> StageCost:
    """Divide stage-total volumes evenly across ``num_tasks`` tasks."""
    num_tasks = max(1, min(num_tasks, MAX_TASKS))
    return StageCost.uniform(name, num_tasks, totals.scaled(1.0 / num_tasks))


def _map_task_count(
    total_input_bytes: float,
    min_tasks: int = 1,
    total_records: float = 0.0,
) -> int:
    by_bytes = math.ceil(total_input_bytes / BLOCK_BYTES)
    by_records = math.ceil(total_records / RECORDS_PER_TASK)
    return max(min_tasks, by_bytes, by_records)


# ---------------------------------------------------------------------------
# Shark: QueryProfile -> stages
# ---------------------------------------------------------------------------


def _stage_totals(stage: StageProfile, scale: float) -> TaskCostVector:
    sources = Counter(task.source for task in stage.tasks)
    dominant = sources.most_common(1)[0][0] if sources else SOURCE_GENERATED
    totals = TaskCostVector(source=dominant)
    vectorized_records = 0.0
    for task in stage.tasks:
        vector = task.to_cost_vector()
        totals.records_in += vector.records_in
        totals.bytes_in += vector.bytes_in
        totals.records_out += vector.records_out
        totals.bytes_out += vector.bytes_out
        totals.shuffle_write_bytes += vector.shuffle_write_bytes
        totals.shuffle_read_bytes += vector.shuffle_read_bytes
        vectorized_records += vector.records_in * vector.vectorized_fraction
    if totals.records_in > 0:
        # Records-weighted: the fraction survives volume scaling unchanged.
        totals.vectorized_fraction = vectorized_records / totals.records_in
    return totals.scaled(scale)


def _stages_from_stage_profiles(
    stage_profiles: list[StageProfile],
    scale: float,
    reduce_tasks: Optional[int] = None,
    min_map_tasks: int = 1,
) -> list[StageCost]:
    """Scale executed stage metrics to cluster volumes.

    Map-side stages are sized by input blocks and row counts; reduce-side
    stages (those fetching shuffle data) keep their executed task count
    unless ``reduce_tasks`` overrides it — Shark's low task overhead makes
    the engine insensitive to this knob, which Figure 13 shows.

    Map-side-combined shuffles (hash aggregations) are special: each map
    task emits roughly one record per group regardless of how much data
    it read, so their shuffle volume scales with the *task-count* ratio,
    not the data ratio; the adjustment carries to the consuming reduce
    stage's fetch volume (even across jobs, when PDE pre-materialized the
    shuffle in an earlier job).
    """
    stages: list[StageCost] = []
    # Scale applied to the *current* dataflow.  A map-side-combined shuffle
    # (hash aggregation) collapses the data to ~one record per group per
    # map task, so everything downstream of it — the fetch, any sort,
    # the final projection — operates on group-sized data and inherits the
    # collapsed scale rather than the raw data scale.
    current_scale = scale
    for stage in stage_profiles:
        if stage.num_tasks == 0:
            continue  # skipped stage (shuffle outputs reused)
        totals = _stage_totals(stage, current_scale)
        if totals.shuffle_read_bytes > 0:
            num_tasks = reduce_tasks or max(
                stage.num_tasks,
                _map_task_count(totals.shuffle_read_bytes),
            )
        else:
            num_tasks = _map_task_count(
                totals.bytes_in, min_map_tasks, totals.records_in
            )
        if stage.is_shuffle_map and stage.map_side_combined:
            task_ratio = num_tasks / stage.num_tasks
            effective = min(current_scale, task_ratio)
            totals.shuffle_write_bytes *= effective / current_scale
            totals.records_out *= effective / current_scale
            current_scale = effective
        stages.append(split_stage(stage.name, totals, num_tasks))
    return stages


def stages_from_profiles(
    profiles: list[QueryProfile],
    scale: float,
    reduce_tasks: Optional[int] = None,
    min_map_tasks: int = 1,
) -> list[StageCost]:
    """Scale every job of a query (PDE probes, sampling, the final
    collect), in run order, as one stage sequence.

    Stages that appear in multiple profiles (a shuffle materialized by a
    PDE probe and then *skipped* by the final job) are only counted once:
    skipped stages ran zero tasks and are dropped.  A merge that ran on
    the driver in place of a reduce stage (a global aggregate's, or a
    GROUP BY's that PDE sized to one reducer at the executed size) is
    that reduce stage again: its one task's metrics, re-counted at scale
    like any reducer's.
    """
    flat: list[StageProfile] = []
    for profile in profiles:
        flat.extend(profile.stages)
        if profile.driver_map_outputs:
            flat.append(
                StageProfile(
                    -1, "driver merge", False, tasks=[profile.driver_task]
                )
            )
    return _stages_from_stage_profiles(
        flat, scale, reduce_tasks, min_map_tasks
    )


# ---------------------------------------------------------------------------
# Hive/Hadoop: JobStats -> stages
# ---------------------------------------------------------------------------


def stages_from_jobs(
    jobs: list[JobStats],
    scale: float,
    reduce_tasks: Optional[int] = None,
    min_map_tasks: int = 1,
    input_source: str = SOURCE_DISK,
) -> list[StageCost]:
    """Scale a MapReduce job chain to cluster volumes.

    Each job becomes a map stage (disk input, sorted shuffle write) and,
    if it shuffled, a reduce stage (shuffle fetch, plus replicated HDFS
    materialization when the job fed another job).
    """
    stages: list[StageCost] = []
    current_scale = scale  # collapses after a combiner job (see above)
    for job in jobs:
        map_totals = TaskCostVector(
            records_in=job.input_records * current_scale,
            bytes_in=job.input_bytes * current_scale,
            records_out=job.map_output_records * current_scale,
            shuffle_write_bytes=job.shuffle_bytes * current_scale,
            source=input_source,
        )
        map_tasks = _map_task_count(
            map_totals.bytes_in, min_map_tasks, map_totals.records_in
        )
        shuffle_scale = current_scale
        if job.used_combiner and job.map_tasks > 0:
            # Combined map output scales with the task-count ratio.
            shuffle_scale = min(current_scale, map_tasks / job.map_tasks)
            map_totals.shuffle_write_bytes = (
                job.shuffle_bytes * shuffle_scale
            )
            map_totals.records_out = job.map_output_records * shuffle_scale
        if job.reduce_tasks == 0:
            # Map-only job: output may still materialize.
            map_totals.bytes_out = job.output_bytes * current_scale
            map_totals.materialized_output = job.materialized_output
            stages.append(split_stage(f"{job.name}/map", map_totals, map_tasks))
            continue
        stages.append(split_stage(f"{job.name}/map", map_totals, map_tasks))
        reduce_totals = TaskCostVector(
            records_in=job.map_output_records * shuffle_scale,
            shuffle_read_bytes=job.shuffle_bytes * shuffle_scale,
            records_out=job.output_records * shuffle_scale,
            bytes_out=job.output_bytes * shuffle_scale,
            source=SOURCE_SHUFFLE,
            materialized_output=job.materialized_output,
        )
        num_reducers = reduce_tasks or job.reduce_tasks
        stages.append(
            split_stage(f"{job.name}/reduce", reduce_totals, num_reducers)
        )
        current_scale = shuffle_scale
    return stages


__all__ = [
    "BLOCK_BYTES",
    "MAX_TASKS",
    "combined_scale",
    "split_stage",
    "stages_from_profiles",
    "stages_from_jobs",
    "SOURCE_MEMORY",
    "SOURCE_DISK",
]
