"""Discrete-event makespan simulation of a query over a virtual cluster.

A query is a sequence of stages; a stage is a bag of independent tasks.
Tasks within a stage are list-scheduled greedily onto ``nodes x cores``
slots, which is exactly what both Hadoop's and Spark's schedulers do for a
single stage once locality is satisfied.  Stages run back-to-back (a shuffle
is a barrier).

The simulator adds the engine-level effects the paper highlights:

* per-task launch overhead (5 ms for Spark vs 5-10 s for Hadoop),
* heartbeat-quantized task assignment (Hadoop assigns work every 3 s),
* the paper-scale model's seeded stragglers (GC pauses, network hiccups;
  ``analyze_profiles`` prices executed work on ``SHARK_NO_STRAGGLER``),
* optional speculative execution: a straggling task's remaining work is
  capped by relaunching a backup copy once a full wave has finished.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.costmodel.constants import (
    DEFAULT_HARDWARE,
    EngineProfile,
    HardwareProfile,
    SHARK_MEM,
)
from repro.costmodel.models import TaskCostVector, estimate_task_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Tracer


@dataclass
class StageCost:
    """One stage of a query: a name and one cost vector per task."""

    name: str
    tasks: list[TaskCostVector]

    @classmethod
    def uniform(
        cls,
        name: str,
        num_tasks: int,
        vector: TaskCostVector,
    ) -> "StageCost":
        """A stage of ``num_tasks`` identical tasks.

        ``vector`` describes the *total* stage volume divided evenly: pass
        the per-task vector directly (use :meth:`TaskCostVector.scaled` with
        ``1 / num_tasks`` to split a stage total).
        """
        if num_tasks <= 0:
            raise ValueError(f"stage {name!r} needs at least one task")
        return cls(name=name, tasks=[vector] * num_tasks)


@dataclass
class StageResult:
    """Simulated timing of one stage."""

    name: str
    num_tasks: int
    seconds: float
    mean_task_seconds: float
    max_task_seconds: float


@dataclass
class QueryCost:
    """Simulated timing of a whole query."""

    engine: str
    total_seconds: float
    stages: list[StageResult] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"engine={self.engine} total={self.total_seconds:.2f}s"]
        for stage in self.stages:
            lines.append(
                f"  stage {stage.name}: {stage.seconds:.2f}s "
                f"({stage.num_tasks} tasks, mean {stage.mean_task_seconds:.3f}s)"
            )
        return "\n".join(lines)


class ClusterSimulator:
    """Simulates query makespan on ``num_nodes`` virtual nodes.

    Parameters
    ----------
    num_nodes:
        Cluster size (the paper mostly uses 100, Figure 9 uses 50).
    engine:
        Engine profile to charge costs under.
    hardware:
        Per-node hardware profile.
    seed:
        Seed for deterministic straggler injection.
    speculation:
        Whether slow tasks get speculative backup copies (Spark/Hadoop do
        this; it caps straggler damage once spare slots exist).
    tracer:
        Optional :class:`~repro.obs.Tracer`; when enabled, each simulated
        task is recorded as a ``sim``-category span on its slot's lane
        (timestamps are the simulator's own schedule), and speculative
        backups increment the ``speculation.launched`` counter.
    """

    def __init__(
        self,
        num_nodes: int,
        engine: EngineProfile = SHARK_MEM,
        hardware: HardwareProfile = DEFAULT_HARDWARE,
        seed: int = 42,
        speculation: bool = True,
        tracer: Optional["Tracer"] = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.engine = engine
        self.hardware = hardware
        self.seed = seed
        self.speculation = speculation
        self.tracer = tracer

    @property
    def total_slots(self) -> int:
        return self.num_nodes * self.hardware.cores_per_node

    def simulate(self, stages: list[StageCost]) -> QueryCost:
        """Simulate the stages back-to-back and return the total makespan."""
        rng = random.Random(self.seed)
        clock = 0.0
        results: list[StageResult] = []
        for stage in stages:
            seconds, mean_s, max_s = self._simulate_stage(
                stage, rng, start=clock
            )
            clock += seconds
            results.append(
                StageResult(
                    name=stage.name,
                    num_tasks=len(stage.tasks),
                    seconds=seconds,
                    mean_task_seconds=mean_s,
                    max_task_seconds=max_s,
                )
            )
        return QueryCost(
            engine=self.engine.name, total_seconds=clock, stages=results
        )

    def _task_durations(
        self, stage: StageCost, rng: random.Random
    ) -> list[float]:
        """Per-task durations with straggler noise applied."""
        durations = []
        for vector in stage.tasks:
            seconds = estimate_task_seconds(vector, self.engine, self.hardware)
            if rng.random() < self.engine.straggler_fraction:
                straggler_seconds = seconds * self.engine.straggler_slowdown
                if self.speculation:
                    # A backup copy launches after roughly one normal task
                    # duration and races the straggler; the effective time
                    # is capped near 2x normal plus the relaunch overhead.
                    capped = 2.0 * seconds + self.engine.task_launch_overhead_s
                    seconds = min(straggler_seconds, capped)
                    if self.tracer is not None and seconds == capped:
                        self.tracer.metrics.inc("speculation.launched")
                else:
                    seconds = straggler_seconds
            durations.append(seconds)
        return durations

    def _simulate_stage(
        self, stage: StageCost, rng: random.Random, start: float = 0.0
    ) -> tuple[float, float, float]:
        """List-schedule one stage; returns (makespan, mean task, max task)."""
        durations = self._task_durations(stage, rng)
        if not durations:
            return 0.0, 0.0, 0.0
        tracer = self.tracer if (
            self.tracer is not None and self.tracer.enabled
        ) else None
        heartbeat = self.engine.scheduling_wave_delay_s
        slots = [
            (0.0, index)
            for index in range(min(self.total_slots, len(durations)))
        ]
        heapq.heapify(slots)
        finish = 0.0
        for task_index, duration in enumerate(durations):
            free_at, slot_index = heapq.heappop(slots)
            if heartbeat > 0:
                # Workers only receive tasks on heartbeat boundaries.
                free_at = math.ceil(free_at / heartbeat) * heartbeat
            done = free_at + duration
            finish = max(finish, done)
            heapq.heappush(slots, (done, slot_index))
            if tracer is not None:
                cores = self.hardware.cores_per_node
                tracer.record_span(
                    f"{stage.name}[{task_index}]",
                    "sim",
                    lane=f"sim node {slot_index // cores}"
                    f" core {slot_index % cores}",
                    start=start + free_at,
                    end=start + done,
                    stage=stage.name,
                    task=task_index,
                )
        mean_task = sum(durations) / len(durations)
        return finish, mean_task, max(durations)
