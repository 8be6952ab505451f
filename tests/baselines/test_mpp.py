"""MPP baseline: coordinator-merge aggregation, coarse-grained recovery."""

import pytest

from repro import SharkContext
from repro.baselines import MppExecutor
from repro.datatypes import INT, STRING, Schema
from repro.errors import QueryAbortedError
from repro.sql.planner import PlannerConfig


@pytest.fixture
def shark():
    shark = SharkContext(num_workers=4)
    shark.create_table(
        "t", Schema.of(("k", STRING), ("v", INT)), cached=True
    )
    shark.load_rows("t", [(f"k{i % 10}", i) for i in range(200)])
    return shark


class TestExecution:
    def test_rows_match_shark(self, shark):
        mpp = MppExecutor(shark.session)
        query = "SELECT k, SUM(v) FROM t GROUP BY k"
        assert sorted(mpp.execute(query).rows) == sorted(
            shark.sql(query).rows
        )

    def test_single_coordinator_merge(self, shark):
        mpp = MppExecutor(shark.session)
        run = mpp.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
        # All groups merged on one coordinator (one reduce partition).
        assert run.coordinator_merge_records == 10

    def test_only_the_aggregate_merges_on_the_coordinator(self):
        """The coordinator takes an aggregation's final merge; a shuffle
        join and DISTINCT keep one reduce partition per core."""
        shark = SharkContext(
            num_workers=4, config=PlannerConfig(broadcast_threshold_bytes=-1)
        )
        shark.create_table("t", Schema.of(("k", STRING), ("v", INT)))
        shark.load_rows("t", [(f"k{i % 10}", i) for i in range(200)])
        mpp = MppExecutor(shark.session)
        cores = shark.engine.default_parallelism
        for query, reducers in (
            ("SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k", cores),
            ("SELECT DISTINCT k FROM t", cores),
            ("SELECT k, COUNT(*) FROM t GROUP BY k", 1),
        ):
            run = mpp.execute(query)
            assert shark.engine.profiles[-1].stages[-1].num_tasks == reducers
            assert sorted(run.rows) == sorted(shark.sql(query).rows)

    def test_select_only(self, shark):
        mpp = MppExecutor(shark.session)
        with pytest.raises(QueryAbortedError):
            mpp.execute("DROP TABLE t")


class TestCoarseGrainedRecovery:
    def test_failure_mid_query_restarts(self, shark):
        mpp = MppExecutor(shark.session)
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=1, after_tasks=base + 4)
        run = mpp.execute("SELECT k, SUM(v) FROM t GROUP BY k")
        assert run.restarts == 1
        assert sorted(run.rows) == sorted(
            shark.sql("SELECT k, SUM(v) FROM t GROUP BY k").rows
        )

    def test_no_failure_no_restart(self, shark):
        mpp = MppExecutor(shark.session)
        run = mpp.execute("SELECT COUNT(*) FROM t")
        assert run.restarts == 0

    def test_gives_up_when_restarts_exhausted(self, shark):
        mpp = MppExecutor(shark.session, max_restarts=0)
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=1, after_tasks=base + 2)
        with pytest.raises(QueryAbortedError):
            mpp.execute("SELECT k, SUM(v) FROM t GROUP BY k")
