"""Task, stage and query metrics recorded during real execution.

Every executed task fills in a :class:`TaskMetrics`; the scheduler rolls
them up into :class:`StageProfile` and :class:`QueryProfile`.  These feed
two consumers:

* the PDE optimizer, which reads per-partition sizes and statistics at
  shuffle boundaries to re-plan the rest of the query (Section 3.1), and
* the cost model, which converts measured volumes into cluster-scale
  seconds for the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.constants import EngineProfile, HardwareProfile
from repro.costmodel.models import (
    SOURCE_GENERATED,
    TaskCostVector,
    estimate_task_seconds,
)


@dataclass
class TaskMetrics:
    """Volumes one task consumed and produced during real execution."""

    stage_id: int = -1
    partition: int = -1
    worker_id: int = -1
    records_in: int = 0
    bytes_in: int = 0
    records_out: int = 0
    bytes_out: int = 0
    shuffle_read_bytes: int = 0
    shuffle_write_bytes: int = 0
    shuffle_write_records: int = 0
    #: The part of ``shuffle_write_bytes`` that is pickled object columns
    #: (values the batch wire format has no typed column for).
    shuffle_write_pickled_bytes: int = 0
    #: Spilled-run bytes this task wrote to (simulated) local disk under
    #: memory pressure and read back at merge time; the cost model
    #: charges a disk round trip for them (zero when nothing spilled).
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    #: Dominant input source observed ("memory", "disk", "shuffle",
    #: "generated"); scan operators set this explicitly.
    source: str = SOURCE_GENERATED
    #: Number of times this task was attempted (>1 after failures or
    #: speculation).
    attempts: int = 1
    #: True when the kept result came from a speculative backup copy.
    speculative: bool = False
    #: Input records processed batch-at-a-time by vectorized kernels
    #: (<= records_in); the cost model charges those a cheaper per-record
    #: CPU rate.
    batch_rows: int = 0
    #: Actual output rows per planner-stamped operator ("operator#op_id"
    #: -> rows), recorded by physical operators in both execution modes.
    #: Per-attempt like every other field here, so only the kept
    #: attempt's counts ever reach the stage profile.
    operator_rows: dict[str, int] = field(default_factory=dict)

    def to_cost_vector(self) -> TaskCostVector:
        """Convert to the cost-model representation."""
        vectorized_fraction = 0.0
        if self.records_in > 0:
            vectorized_fraction = min(
                self.batch_rows / self.records_in, 1.0
            )
        return TaskCostVector(
            records_in=float(self.records_in),
            bytes_in=float(self.bytes_in),
            records_out=float(self.records_out),
            bytes_out=float(self.bytes_out),
            shuffle_write_bytes=float(self.shuffle_write_bytes),
            shuffle_read_bytes=float(self.shuffle_read_bytes),
            spill_write_bytes=float(self.spill_bytes_written),
            spill_read_bytes=float(self.spill_bytes_read),
            source=self.source,
            vectorized_fraction=vectorized_fraction,
        )


@dataclass
class StageProfile:
    """Rolled-up metrics for one executed stage."""

    stage_id: int
    name: str
    is_shuffle_map: bool
    #: True when this shuffle pre-aggregates per key on the map side; its
    #: output volume then scales with the number of map tasks, not with
    #: the data volume (each map emits ~one record per group).
    map_side_combined: bool = False
    tasks: list[TaskMetrics] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def records_in(self) -> int:
        return sum(task.records_in for task in self.tasks)

    @property
    def bytes_in(self) -> int:
        return sum(task.bytes_in for task in self.tasks)

    @property
    def records_out(self) -> int:
        return sum(task.records_out for task in self.tasks)

    @property
    def shuffle_write_bytes(self) -> int:
        return sum(task.shuffle_write_bytes for task in self.tasks)

    @property
    def shuffle_read_bytes(self) -> int:
        return sum(task.shuffle_read_bytes for task in self.tasks)

    @property
    def shuffle_write_records(self) -> int:
        return sum(task.shuffle_write_records for task in self.tasks)

    @property
    def shuffle_write_pickled_bytes(self) -> int:
        return sum(task.shuffle_write_pickled_bytes for task in self.tasks)

    @property
    def spill_bytes_written(self) -> int:
        return sum(task.spill_bytes_written for task in self.tasks)

    @property
    def spill_bytes_read(self) -> int:
        return sum(task.spill_bytes_read for task in self.tasks)

    @property
    def total_attempts(self) -> int:
        return sum(task.attempts for task in self.tasks)

    @property
    def operator_rows(self) -> dict[str, int]:
        """Per-operator actual output rows summed over this stage's
        kept task attempts."""
        totals: dict[str, int] = {}
        for task in self.tasks:
            for key, count in task.operator_rows.items():
                totals[key] = totals.get(key, 0) + count
        return totals

    def cost_vectors(self) -> list[TaskCostVector]:
        return [task.to_cost_vector() for task in self.tasks]


@dataclass
class QueryProfile:
    """All stages executed for one job (action)."""

    job_id: int
    stages: list[StageProfile] = field(default_factory=list)
    #: Tasks re-executed due to worker failures (lineage recovery).
    recovered_tasks: int = 0
    #: Task attempts retried after transient failures (with backoff).
    retried_tasks: int = 0
    #: Speculative backup copies launched against stragglers.
    speculative_tasks: int = 0
    #: Workers placed on the blacklist during this job.
    blacklisted_workers: int = 0
    #: Cached blocks the workers' LRU dropped under memory pressure while
    #: this job ran (lineage recomputes them on the next read).
    evicted_blocks: int = 0
    evicted_bytes: int = 0
    #: Bytes the job reserved through the unified memory accountant
    #: (storage puts + execution-pool operator state), and the engine's
    #: cumulative per-worker peak watermark observed when the job ended.
    memory_reserved_bytes: int = 0
    memory_peak_bytes: int = 0
    #: Spills forced by memory arbitration while this job ran: number of
    #: consumer spill events and total run bytes written to (simulated)
    #: local disk.  Zero when every operator fit in its budget.
    memory_spill_events: int = 0
    memory_spill_bytes: int = 0
    #: The driver's :class:`TaskMetrics` for a job it finished itself (a
    #: :class:`~repro.engine.rdd.DriverRDD`'s merge), as its fields:
    #: ``shuffle_read_bytes`` is what it fetched, as a reduce task would;
    #: ``operator_rows`` what the operators run on the driver output.
    #: Empty otherwise, and then not in the event log.
    driver_merge: dict = field(default_factory=dict)
    #: The map outputs a driver merge fetched: a global aggregate's
    #: partial tasks, or those of a GROUP BY that PDE sized to one
    #: reducer — the map side of the reduce stage the merge replaced.
    #: 0 when the driver merged nothing.
    driver_map_outputs: int = 0

    @property
    def driver_task(self) -> TaskMetrics | None:
        """:attr:`driver_merge` as a TaskMetrics (None when the driver
        merged nothing)."""
        return TaskMetrics(**self.driver_merge) if self.driver_merge else None

    def driver_merge_seconds(
        self, engine: EngineProfile, hardware: HardwareProfile
    ) -> float:
        """The driver merge's simulated seconds: the driver task's cost
        vector with no task launch (0 when the job merged nothing on
        the driver)."""
        task = self.driver_task
        if task is None:
            return 0.0
        return estimate_task_seconds(
            task.to_cost_vector(), engine, hardware, include_launch=False
        )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_tasks(self) -> int:
        return sum(stage.num_tasks for stage in self.stages)

    @property
    def total_attempts(self) -> int:
        return sum(stage.total_attempts for stage in self.stages)

    @property
    def shuffle_read_bytes(self) -> int:
        return sum(stage.shuffle_read_bytes for stage in self.stages)

    @property
    def shuffle_write_bytes(self) -> int:
        return sum(stage.shuffle_write_bytes for stage in self.stages)
