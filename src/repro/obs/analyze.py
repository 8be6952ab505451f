"""``EXPLAIN ANALYZE``: executed-stage statistics behind the plan text.

The session runs the query for real, collects every job's
:class:`~repro.engine.metrics.QueryProfile` (PDE pre-shuffles, sampling
jobs, the final collect), and hands them here.  Each executed stage is
annotated with task counts, attempts, rows, shuffle bytes, and the
simulated seconds the discrete-event
:class:`~repro.costmodel.simulator.ClusterSimulator` charges for it on
the session's own virtual cluster (not the paper's 100 nodes — the
point is to show where *this* query spent its modelled time); a job's
driver merge gets a line of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.costmodel.constants import DEFAULT_HARDWARE, SHARK_NO_STRAGGLER
from repro.costmodel.simulator import ClusterSimulator, StageCost
from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.obs.planquality import (
    DEFAULT_Q_ERROR_THRESHOLD,
    audit,
    format_profile_line,
    heavy_keys_text,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.record import QueryRecord


@dataclass
class StageAnalysis:
    """One executed stage and the simulated seconds it was charged."""

    job_id: int
    stage: StageProfile
    sim_seconds: float

    @property
    def kind(self) -> str:
        return "shuffle-map" if self.stage.is_shuffle_map else "result"

    def render(self) -> str:
        stage = self.stage
        parts = [f"{stage.num_tasks} tasks"]
        if stage.total_attempts != stage.num_tasks:
            parts[-1] += f" ({stage.total_attempts} attempts)"
        parts.append(f"rows {stage.records_in} -> {stage.records_out}")
        parts.append(f"input {_bytes(stage.bytes_in)}")
        if stage.shuffle_read_bytes:
            parts.append(f"shuffle read {_bytes(stage.shuffle_read_bytes)}")
        if stage.shuffle_write_bytes:
            # The exchange: one keyed batch per map task, weighed at its
            # encoded size; pickled bytes are columns with no typed form.
            exchange = (
                f"{stage.num_tasks} batches, "
                f"{stage.shuffle_write_records} rows"
            )
            if stage.shuffle_write_pickled_bytes:
                exchange += (
                    f", {_bytes(stage.shuffle_write_pickled_bytes)} pickled"
                )
            parts.append(
                f"shuffle write {_bytes(stage.shuffle_write_bytes)} "
                f"({exchange})"
            )
        parts.append(f"{self.sim_seconds:.3f} sim-s")
        return (
            f"stage {stage.stage_id} ({self.kind}, {stage.name}): "
            + ", ".join(parts)
        )


@dataclass
class DriverMergeAnalysis:
    """One job's driver merge (``QueryProfile.driver_task``) and the
    simulated seconds it was charged: driver work after the job's last
    stage, not a stage.  ``map_outputs`` are the map outputs the driver
    fetched (``QueryProfile.driver_map_outputs``)."""

    job_id: int
    task: TaskMetrics
    sim_seconds: float
    map_outputs: int

    def render(self) -> str:
        task = self.task
        return (
            f"driver merge (job {self.job_id}): "
            f"{self.map_outputs} map outputs, "
            f"fetched {_bytes(task.shuffle_read_bytes)}, "
            f"{task.records_out} rows out, "
            f"{self.sim_seconds:.6f} sim-s"
        )


@dataclass
class QueryAnalysis:
    """What :func:`analyze_profiles` computes: each executed stage's and
    driver merge's simulated seconds, and the query's makespan."""

    stages: list[StageAnalysis] = field(default_factory=list)
    total_sim_seconds: float = 0.0
    merges: list[DriverMergeAnalysis] = field(default_factory=list)


def analyze_profiles(
    plan_text: str,
    profiles: list[QueryProfile],
    num_workers: int,
    cores_per_worker: int,
) -> QueryAnalysis:
    """Price the executed profiles on the simulator.

    Simulated seconds come from list-scheduling each executed stage's
    measured per-task cost vectors onto the session's own virtual
    cluster geometry (``num_workers`` x ``cores_per_worker``), with no
    straggler draw: a stage costs the same wherever it sits in its query.
    A job's driver merge follows its last stage, priced as the work of
    one task with no launch.
    ``plan_text`` is not read: the plan belongs to the query's record
    (:func:`render_query` prints it); the parameter stays for callers
    that pass it by position.
    """
    hardware = replace(DEFAULT_HARDWARE, cores_per_node=cores_per_worker)
    simulator = ClusterSimulator(
        max(num_workers, 1), engine=SHARK_NO_STRAGGLER, hardware=hardware
    )
    executed = [
        (profile.job_id, stage)
        for profile in profiles
        for stage in profile.stages
        if stage.num_tasks  # none: skipped, shuffle outputs reused
    ]
    costs = simulator.simulate(
        [
            StageCost(name=stage.name, tasks=stage.cost_vectors())
            for __, stage in executed
        ]
    )
    merges = [
        DriverMergeAnalysis(
            profile.job_id,
            profile.driver_task,
            profile.driver_merge_seconds(SHARK_NO_STRAGGLER, hardware),
            profile.driver_map_outputs,
        )
        for profile in profiles
        if profile.driver_merge
    ]
    return QueryAnalysis(
        stages=[
            StageAnalysis(job_id, stage, result.seconds)
            for (job_id, stage), result in zip(executed, costs.stages)
        ],
        total_sim_seconds=costs.total_seconds
        + sum(merge.sim_seconds for merge in merges),
        merges=merges,
    )


#: QueryProfile counters reported as totals over a query's jobs.
_JOB_TOTALS = (
    ("recovered_tasks", "recovered tasks (lineage re-execution)"),
    ("retried_tasks", "retried tasks (transient failures)"),
    ("speculative_tasks", "speculative tasks (straggler backups)"),
    ("blacklisted_workers", "blacklisted workers"),
)


def render_query(
    record: "QueryRecord",
    pressure_events: int = 0,
    trailers: Iterable[tuple[str, list[str]]] = (),
    notes: Iterable[str] = (),
) -> str:
    """The text of EXPLAIN ANALYZE and, under its header, of ``history
    --query``: the plan, then the runtime profile of ``record``'s jobs
    with its memory, operator-mode, plan-quality and skew sections.

    The other arguments are what only a live session can add, read off
    the engine rather than the query: the memory accountant's pressure-
    event count, ``(title, lines)`` trailer sections (serving, sql
    cache) and the planner's notes.
    """
    analysis = record.analyze()
    profiles = record.profiles

    def total(counter: str) -> int:
        return sum(getattr(profile, counter) for profile in profiles)

    lines = (record.plan_text or "").splitlines()
    if lines:
        lines.append("")
    lines.append(
        f"== runtime profile ({len(profiles)} job"
        f"{'s' if len(profiles) != 1 else ''}, "
        f"{analysis.total_sim_seconds:.3f} simulated seconds) =="
    )
    for stage in analysis.stages:
        lines.append("  " + stage.render())
    for merge in analysis.merges:
        lines.append("  " + merge.render())
    for counter, label in _JOB_TOTALS:
        if total(counter):
            lines.append(f"  {label}: {total(counter)}")
    if total("evicted_blocks"):
        lines.append(
            f"  evicted cache blocks (memory pressure): "
            f"{total('evicted_blocks')} "
            f"({_bytes(total('evicted_bytes'))})"
        )
    reserved = total("memory_reserved_bytes")
    if reserved or record.memory:
        peak = max(
            (profile.memory_peak_bytes for profile in profiles), default=0
        )
        lines.append("  == memory ==")
        lines.append(
            f"  reserved {_bytes(reserved)}, "
            f"peak watermark {_bytes(peak)}"
        )
        for row in record.memory:
            worker = row["worker"]
            label = "driver" if worker == -1 else f"worker {worker}"
            lines.append(
                f"  {label} {row['pool']}: "
                f"used {_bytes(row['used_bytes'])}, "
                f"peak {_bytes(row['peak_bytes'])}"
            )
        if pressure_events:
            lines.append(f"  pressure events: {pressure_events}")
        spill_events = sum(row["events"] for row in record.spills)
        if spill_events:
            spill_bytes = sum(row["bytes"] for row in record.spills)
            lines.append(
                f"  spills: {spill_events} event(s), "
                f"{_bytes(spill_bytes)} to disk"
            )
            for row in record.spills:
                lines.append(
                    f"  spill {row['owner']}: "
                    f"{row['events']} event(s), "
                    f"{_bytes(row['bytes'])} in "
                    f"{row['runs']} run(s)"
                )
    if record.result_rows is not None:
        lines.append(f"  result: {record.result_rows} row(s)")
    if record.operator_profiles:
        lines.append("  == operator modes ==")
        for profile in record.operator_profiles:
            lines.append(f"  {profile['operator']}: {profile['mode']}")
        lines.append("  == plan quality (est vs actual) ==")
        for profile in record.operator_profiles:
            lines.append(
                "  "
                + format_profile_line(profile, DEFAULT_Q_ERROR_THRESHOLD)
            )
        flagged = audit(
            record.operator_profiles, DEFAULT_Q_ERROR_THRESHOLD
        )
        if flagged:
            lines.append(
                f"  audit: {len(flagged)} misestimate(s) with "
                f"q-error > {DEFAULT_Q_ERROR_THRESHOLD:g} "
                f"(worst: {flagged[0]['operator']} "
                f"x{flagged[0]['q_error']:.1f})"
            )
    if record.skew_records:
        lines.append("  == shuffle skew ==")
        for row in record.skew_records:
            heavy = heavy_keys_text(row)
            lines.append(
                f"  shuffle {row['shuffle_id']}: "
                f"{row['num_reduces']} reduces, "
                f"{row.get('total_rows', 0)} rows, "
                f"row skew x{row.get('row_skew', 0.0):.2f}, "
                f"byte skew x{row.get('byte_skew', 0.0):.2f}, "
                f"straggler partition "
                f"{row.get('straggler_partition', 0)}"
                + (f" [{heavy}]" if heavy else "")
            )
    for title, body in trailers:
        lines.append(f"  == {title} ==")
        lines.extend(f"  {line}" for line in body)
    lines.extend(f"  -- {note}" for note in notes)
    return "\n".join(lines)


def _bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{int(count)}B"  # pragma: no cover - unreachable
