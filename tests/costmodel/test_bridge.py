"""Bridge: executed metrics -> scaled cluster stages."""

import pytest

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.costmodel import ClusterSimulator, HIVE, SHARK_MEM
from repro.costmodel.bridge import (
    BLOCK_BYTES,
    combined_scale,
    split_stage,
    stages_from_jobs,
    stages_from_profiles,
)
from repro.costmodel.models import TaskCostVector
from repro.datatypes import INT, STRING, Schema
from repro.workloads import pavlo


class TestSplitStage:
    def test_divides_volumes(self):
        totals = TaskCostVector(records_in=100, bytes_in=1000)
        stage = split_stage("s", totals, 10)
        assert len(stage.tasks) == 10
        assert stage.tasks[0].records_in == 10
        assert stage.tasks[0].bytes_in == 100

    def test_clamps_task_count(self):
        stage = split_stage("s", TaskCostVector(), 0)
        assert len(stage.tasks) == 1


class TestCombinedScale:
    def test_blends_multiple_datasets(self):
        rankings = pavlo.generate_rankings(100)
        visits = pavlo.generate_uservisits(200, num_pages=100)
        scale = combined_scale([rankings, visits])
        assert scale > 1000  # local KBs represent TBs

    def test_single_dataset_matches_own_factor(self):
        rankings = pavlo.generate_rankings(100)
        assert combined_scale([rankings]) == pytest.approx(
            rankings.scale_factor
        )


@pytest.fixture(scope="module")
def executed():
    shark = SharkContext(num_workers=4)
    schema = Schema.of(("k", STRING), ("v", INT))
    shark.create_table("t", schema, cached=True)
    # Enough rows that the map-side combine ratio (groups x maps / rows)
    # resembles cluster reality; tiny samples overstate shuffle volume.
    shark.load_rows("t", [(f"k{i % 50}", i) for i in range(20000)])

    hive = HiveExecutor(shark.session)
    return shark, hive


class TestProfileScaling:
    def test_stage_counts_follow_volume(self, executed):
        shark, __ = executed
        shark.engine.reset_profiles()
        shark.sql("SELECT k, SUM(v) FROM t GROUP BY k")
        small = stages_from_profiles(shark.engine.profiles, scale=1.0)
        large = stages_from_profiles(shark.engine.profiles, scale=1e6)
        assert sum(len(s.tasks) for s in large) > sum(
            len(s.tasks) for s in small
        )

    def test_map_tasks_sized_by_block_and_rows(self, executed):
        import math

        from repro.costmodel.bridge import RECORDS_PER_TASK

        shark, __ = executed
        shark.engine.reset_profiles()
        shark.sql("SELECT COUNT(*) FROM t WHERE v > 0")
        profiles = shark.engine.profiles
        total_bytes = sum(
            stage.bytes_in
            for profile in profiles
            for stage in profile.stages
        )
        total_records = sum(
            stage.records_in
            for profile in profiles
            for stage in profile.stages
        )
        scale = 100 * BLOCK_BYTES / max(total_bytes, 1)
        stages = stages_from_profiles(profiles, scale)
        scan = stages[0]
        expected = max(
            math.ceil(total_bytes * scale / BLOCK_BYTES),
            math.ceil(total_records * scale / RECORDS_PER_TASK),
        )
        assert len(scan.tasks) == pytest.approx(expected, rel=0.1)

    def test_simulated_times_ordered_sanely(self, executed):
        shark, hive = executed
        query = "SELECT k, SUM(v) FROM t GROUP BY k"
        scale = 5e5
        shark.engine.reset_profiles()
        shark.sql(query)
        shark_stages = stages_from_profiles(shark.engine.profiles, scale)
        hive_run = hive.execute(query)
        hive_stages = stages_from_jobs(hive_run.jobs, scale, reduce_tasks=400)
        shark_s = ClusterSimulator(100, SHARK_MEM).simulate(
            shark_stages
        ).total_seconds
        hive_s = ClusterSimulator(100, HIVE).simulate(
            hive_stages
        ).total_seconds
        assert hive_s > shark_s * 5  # the paper's headline direction


class TestJobScaling:
    def test_map_and_reduce_stages_emitted(self, executed):
        __, hive = executed
        run = hive.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
        stages = stages_from_jobs(run.jobs, scale=1.0)
        names = [stage.name for stage in stages]
        assert any("map" in name for name in names)
        assert any("reduce" in name for name in names)

    def test_map_only_job_single_stage(self, executed):
        __, hive = executed
        run = hive.execute("SELECT k FROM t WHERE v > 1999")
        stages = stages_from_jobs(run.jobs, scale=1.0)
        assert len(stages) == 1

    def test_reduce_override(self, executed):
        __, hive = executed
        run = hive.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
        stages = stages_from_jobs(run.jobs, scale=1.0, reduce_tasks=123)
        reduce_stage = next(s for s in stages if "reduce" in s.name)
        assert len(reduce_stage.tasks) == 123
