"""Shared benchmark harness.

Every bench follows the same recipe:

1. build a SharkContext over a scaled-down workload dataset;
2. *execute* the paper's query for real (correct rows, measured volumes);
3. scale the measured per-stage volumes to the paper's dataset sizes and
   simulate the makespan on the paper's cluster (100 nodes, Section 6.1)
   under each engine profile;
4. print the same series the paper's figure/table reports.

Absolute seconds will not match EC2 2012; the *shape* — who wins, by
roughly what factor, where crossovers fall — is the reproduction target.
Local wall-clock time is additionally measured by pytest-benchmark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import SharkContext
from repro.baselines import HiveExecutor, JobStats
from repro.costmodel import (
    ClusterSimulator,
    EngineProfile,
    HIVE,
    SHARK_DISK,
    SHARK_MEM,
)
from repro.costmodel.bridge import (
    stages_from_jobs,
    stages_from_profiles,
)
from repro.sql.planner import PlannerConfig
from repro.workloads.base import Dataset

#: The paper's main cluster size (Section 6.1).
PAPER_NODES = 100

#: When set (the benchmark suite's ``--trace-out DIR`` option, or assign
#: directly), :func:`shark_cluster_seconds` enables span tracing around
#: each measured query and writes one Chrome-trace JSON per query into
#: this directory.  None (the default) leaves tracing off: the measured
#: path pays only a disabled-flag check.
TRACE_OUT: Optional[str] = None
_trace_sequence = 0

#: When set to a directory, every :func:`make_shark` context opens a
#: persistent event log there (``events_NNN.jsonl``), so each measured
#: query's records — plan, profile, counters, timeline — survive the
#: run for ``python -m repro.obs.history`` post-mortems.  Unlike
#: TRACE_OUT this does not enable span tracing; the event log records
#: what the always-on layer knows.
EVENT_LOG_OUT: Optional[str] = None
_event_log_sequence = 0


def _next_trace_path() -> str:
    global _trace_sequence
    _trace_sequence += 1
    os.makedirs(TRACE_OUT, exist_ok=True)
    return os.path.join(TRACE_OUT, f"query_{_trace_sequence:03d}.json")


def _next_event_log_path() -> str:
    global _event_log_sequence
    _event_log_sequence += 1
    os.makedirs(EVENT_LOG_OUT, exist_ok=True)
    return os.path.join(
        EVENT_LOG_OUT, f"events_{_event_log_sequence:03d}.jsonl"
    )


@dataclass
class BenchResult:
    """One bar of a figure: a label and its modelled cluster seconds."""

    label: str
    seconds: float
    detail: str = ""


@dataclass
class Figure:
    """A named collection of bars, printed like the paper reports them."""

    title: str
    paper_reference: str
    results: list[BenchResult] = field(default_factory=list)

    def add(self, label: str, seconds: float, detail: str = "") -> None:
        self.results.append(BenchResult(label, seconds, detail))

    def seconds(self, label: str) -> float:
        for result in self.results:
            if result.label == label:
                return result.seconds
        raise KeyError(label)

    def ratio(self, slow: str, fast: str) -> float:
        return self.seconds(slow) / max(self.seconds(fast), 1e-9)

    def show(self) -> None:
        print(f"\n=== {self.title}")
        print(f"    paper: {self.paper_reference}")
        width = max(len(r.label) for r in self.results) if self.results else 0
        for result in self.results:
            detail = f"   ({result.detail})" if result.detail else ""
            print(
                f"    {result.label:<{width}}  "
                f"{result.seconds:>10.2f} s{detail}"
            )


def make_shark(
    datasets: dict[str, Dataset],
    cached: bool = True,
    config: Optional[PlannerConfig] = None,
    num_workers: int = 4,
    partitions_per_table: Optional[int] = None,
) -> SharkContext:
    """A SharkContext with every dataset loaded as a table."""
    shark = SharkContext(
        num_workers=num_workers, cores_per_worker=2, config=config
    )
    for name, dataset in datasets.items():
        shark.create_table(name, dataset.schema, cached=cached)
        shark.load_rows(name, dataset.rows, partitions_per_table)
    if EVENT_LOG_OUT is not None:
        shark.enable_event_log(_next_event_log_path(), source="bench")
    return shark


def make_hive(shark: SharkContext, num_reducers: int = 8) -> HiveExecutor:
    """A Hive executor over the same catalog, data and engine as
    ``shark``."""
    return HiveExecutor(shark.session, num_reducers=num_reducers)


def shark_cluster_seconds(
    shark: SharkContext,
    query: str,
    scale: float,
    engine: EngineProfile = SHARK_MEM,
    num_nodes: int = PAPER_NODES,
    reduce_tasks: Optional[int] = None,
) -> tuple[float, list]:
    """Execute ``query`` on Shark, then model it at cluster scale.

    Returns (modelled seconds, result rows).
    """
    tracing = TRACE_OUT is not None
    if tracing:
        shark.engine.enable_tracing(reset=True)
    shark.engine.reset_profiles()
    result = shark.sql(query)
    stages = stages_from_profiles(
        shark.engine.profiles, scale, reduce_tasks=reduce_tasks
    )
    simulator = ClusterSimulator(
        num_nodes, engine, tracer=shark.engine.tracer if tracing else None
    )
    cost = simulator.simulate(stages)
    if tracing:
        shark.engine.trace.write_chrome_trace(
            _next_trace_path(),
            metadata={"query": query, "engine": engine.name},
        )
        shark.engine.disable_tracing()
    return cost.total_seconds, result.rows


def hive_cluster_seconds(
    hive: HiveExecutor,
    query: str,
    scale: float,
    engine: EngineProfile = HIVE,
    num_nodes: int = PAPER_NODES,
    reduce_tasks: Optional[int] = None,
) -> tuple[float, list]:
    """Execute ``query`` on the Hive baseline, then model it at scale."""
    run = hive.execute(query)
    stages = stages_from_jobs(run.jobs, scale, reduce_tasks=reduce_tasks)
    cost = ClusterSimulator(num_nodes, engine).simulate(stages)
    return cost.total_seconds, run.rows


def jobs_cluster_seconds(
    jobs: list[JobStats],
    scale: float,
    engine: EngineProfile,
    num_nodes: int = PAPER_NODES,
    reduce_tasks: Optional[int] = None,
) -> float:
    stages = stages_from_jobs(jobs, scale, reduce_tasks=reduce_tasks)
    return ClusterSimulator(num_nodes, engine).simulate(stages).total_seconds


def assert_same_rows(left: list, right: list, context: str = "") -> None:
    """Cross-engine differential check inside benches."""
    def normalize(rows):
        out = []
        for row in rows:
            out.append(
                tuple(
                    round(v, 6) if isinstance(v, float) else v for v in row
                )
            )
        return sorted(out, key=repr)

    assert normalize(left) == normalize(right), (
        f"row mismatch between engines{': ' + context if context else ''}"
    )


def hand_tuned_reducers(scale_bytes: float) -> int:
    """The 'Hive (tuned)' reducer count: roughly one reducer per 256 MB of
    shuffle input, capped at the cluster's slot count (Section 6.3)."""
    tuned = int(scale_bytes / (256 * 1024 * 1024)) + 1
    return max(8, min(tuned, PAPER_NODES * 8))
