"""Figure 9: query time under failures (Section 6.3.3).

Paper setup: 50-node cluster, group-by on the 100 GB lineitem table held
in the memstore.  Bars (seconds): full reload ~39, no failures ~14,
single failure ~17 (recovery cost ~3 s), post-recovery slightly below the
pre-failure time.

Reproduced by actually killing a worker mid-query: the engine re-executes
only the lost tasks (visible in the profile), and the extra recovery work
is what separates the "single failure" bar from "no failures".
"""

import pytest

from dataclasses import replace

from harness import Figure, make_shark
from repro.costmodel import ClusterSimulator, SHARK_DISK
from repro.costmodel.constants import SHARK_NO_STRAGGLER
from repro.costmodel.bridge import stages_from_profiles
from repro.workloads import tpch

FAULT_NODES = 50  # the paper uses a 50-node cluster for this experiment
LOCAL_ROWS = 12000

QUERY = "SELECT L_RECEIPTDATE, COUNT(*) FROM lineitem GROUP BY L_RECEIPTDATE"

#: Straggler noise off: this figure isolates the *recovery* delta, and
#: random per-run straggler draws would swamp a ~20% effect.
DISK_PROFILE = replace(SHARK_DISK, straggler_fraction=0.0)


@pytest.fixture(scope="module")
def dataset():
    return tpch.generate_lineitem(LOCAL_ROWS, represented=tpch.SCALE_100GB)


def _cluster_seconds(shark, scale, engine=SHARK_NO_STRAGGLER):
    stages = stages_from_profiles(shark.engine.profiles, scale)
    return ClusterSimulator(FAULT_NODES, engine).simulate(
        stages
    ).total_seconds


def _single_failure(shark, scale):
    """Kill one worker mid-query; lineage recovery re-runs only the lost
    tasks, all inside the same query.  The victim is the worker that
    completes the query's fourth task, so it dies holding a map output
    of the query.  The engine's clock is rewound first: least-busy
    placement reads each lane's busy time, so the victim, and what it
    held, depend on the measured query alone and not on what ran
    before.  Returns (rows, cluster seconds, tasks recomputed)."""
    shark.engine.tracer.reset()
    base = shark.engine.cluster.total_tasks_completed
    shark.inject_failure(worker_id=None, after_tasks=base + 4)
    shark.engine.reset_profiles()
    rows = shark.sql(QUERY).rows
    recovered_tasks = sum(
        profile.recovered_tasks for profile in shark.engine.profiles
    )
    return rows, _cluster_seconds(shark, scale), recovered_tasks


class TestFigure09:
    def test_failure_recovery_timeline(self, dataset, benchmark):
        scale = dataset.scale_factor

        # --- full reload: data must come off HDFS (and deserialize).
        disk_shark = make_shark({"lineitem": dataset}, cached=False)
        disk_shark.engine.reset_profiles()
        disk_rows = disk_shark.sql(QUERY).rows
        full_reload_s = _cluster_seconds(disk_shark, scale, DISK_PROFILE)

        # --- no failures: served from the columnar memstore.
        shark = make_shark({"lineitem": dataset}, cached=True)
        benchmark.pedantic(lambda: shark.sql(QUERY), rounds=2, iterations=1)
        shark.engine.reset_profiles()
        baseline_rows = shark.sql(QUERY).rows
        no_failure_s = _cluster_seconds(shark, scale)
        assert sorted(baseline_rows) == sorted(disk_rows)

        # --- single failure.
        failure_rows, failure_s, recovered_tasks = _single_failure(
            shark, scale
        )
        assert sorted(failure_rows) == sorted(baseline_rows)
        assert recovered_tasks > 0
        # What the failure costs does not depend on the warm-up: a
        # context that ran nothing before recomputes as many tasks.
        cold = make_shark({"lineitem": dataset}, cached=True)
        assert _single_failure(cold, scale)[2] == recovered_tasks

        # --- post-recovery: the recomputed partitions are cached again on
        # the survivors; subsequent queries run at full speed.
        shark.engine.reset_profiles()
        post_rows = shark.sql(QUERY).rows
        post_recovery_s = _cluster_seconds(shark, scale)
        assert sorted(post_rows) == sorted(baseline_rows)

        figure = Figure(
            f"Figure 9: query time with failures ({FAULT_NODES} nodes)",
            "Full reload ~39 s / No failures ~14 s / Single failure ~17 s "
            "/ Post-recovery ~ no-failure",
        )
        figure.add("Full reload", full_reload_s)
        figure.add("No failures", no_failure_s)
        figure.add(
            "Single failure", failure_s,
            f"{recovered_tasks} tasks recomputed from lineage",
        )
        figure.add("Post-recovery", post_recovery_s)
        figure.show()

        # Shape: failure adds a modest recovery delta, far cheaper than
        # reloading; post-recovery returns to the baseline.
        assert no_failure_s <= failure_s <= no_failure_s * 2.5
        assert full_reload_s > failure_s * 1.5
        assert post_recovery_s <= no_failure_s * 1.2

    def test_recovery_parallelized_across_survivors(self, dataset, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        shark = make_shark(
            {"lineitem": dataset}, cached=True, num_workers=6
        )
        shark.sql(QUERY)
        before = {
            w.worker_id: w.tasks_run
            for w in shark.engine.cluster.live_workers()
        }
        shark.kill_worker(0)
        shark.sql(QUERY)
        participants = [
            w.worker_id
            for w in shark.engine.cluster.live_workers()
            if w.tasks_run > before.get(w.worker_id, 0)
        ]
        assert len(participants) >= 2
