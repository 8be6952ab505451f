"""QueryScope: one owner, one exit for what a query holds in the engine.

Whatever the entry point and whatever the outcome, a finished SELECT
leaves no registered shuffle block, no scheduler stage or accumulator
guard, and nothing ``EngineContext.invariant_violations`` names; a table
or a ``sql2rdd`` plan keeps exactly what its lineage reads.  (The
lifecycle outcomes — done, cancelled, deadline, failed — and the two
concurrent-query probes are in ``test_lifecycle.py``.)
"""

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.errors import ReproError
from repro.faults import FaultInjector
from repro.serving import BATCH, INTERACTIVE, SqlServer
from repro.storage.scan import lineage_reads
from tests.conftest import stored_blocks

AGG = (
    "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
    "FROM readings GROUP BY bucket"
)
ORDERED = "SELECT day, value FROM readings ORDER BY value, day LIMIT 7"
SELF_JOIN = (
    "SELECT a.day, COUNT(*) FROM readings a JOIN readings b "
    "ON a.day = b.day WHERE a.value < 3 AND b.value < 3 GROUP BY a.day"
)
ROWS = [(f"b{i % 6}", i % 15, float(i % 100)) for i in range(3000)]


def _build_shark(**kwargs) -> SharkContext:
    shark = SharkContext(num_workers=4, **kwargs)
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.load_rows("readings", ROWS, num_partitions=8)
    return shark


def engine_holds(shark: SharkContext) -> dict:
    """What a query can leave in the engine, by name."""
    engine = shark.engine
    return {
        "registered": engine.shuffle_manager.registered_block_ids(),
        "stages": set(engine.scheduler._shuffle_stages),
        "acc_guards": set(engine.scheduler._merged_map_acc),
        "violations": engine.invariant_violations(),
    }


NOTHING = {
    "registered": set(),
    "stages": set(),
    "acc_guards": set(),
    "violations": [],
}


class TestEverySelectReleasesEverything:
    @pytest.mark.parametrize(
        "text", [AGG, ORDERED, SELF_JOIN], ids=["group_by", "order_by", "join"]
    )
    def test_plain_sql(self, text):
        shark = _build_shark()
        first = shark.sql(text).rows
        assert shark.metrics.value("shuffle.released.blocks") > 0
        assert engine_holds(shark) == NOTHING
        # Nothing it needed was taken: the same statement answers again.
        assert shark.sql(text).rows == first
        assert engine_holds(shark) == NOTHING

    def test_result_cache_hit_path(self):
        shark = _build_shark()
        shark.enable_sql_cache()
        miss = shark.sql(AGG)
        assert engine_holds(shark) == NOTHING
        hit = shark.sql(AGG)  # by memoized text: no parse, no jobs
        assert hit.cache_hit and not miss.cache_hit
        assert hit.rows == miss.rows
        assert engine_holds(shark) == NOTHING

    def test_explain_analyze(self):
        shark = _build_shark()
        text = shark.explain_analyze(AGG)
        assert "shuffle 0:" in text  # inspected while it existed
        assert engine_holds(shark) == NOTHING

    def test_failed_statement(self):
        shark = _build_shark()

        def explode(value):
            raise ValueError("boom")

        shark.register_udf("explode", explode, DOUBLE)
        with pytest.raises(ReproError):
            # The map side of the GROUP BY ran (in plan()); the UDF only
            # blows up above the exchange.
            shark.sql(
                "SELECT bucket, explode(SUM(value)) FROM readings "
                "GROUP BY bucket"
            )
        assert shark.metrics.value("shuffle.released.blocks") > 0
        assert engine_holds(shark) == NOTHING

    def test_sql_server(self):
        shark = _build_shark()
        server = SqlServer(shark)
        server.register_tenant("alice", INTERACTIVE)
        server.register_tenant("bob", BATCH)
        tickets = [
            server.submit(tenant, text)
            for tenant in ("alice", "bob")
            for text in (AGG, ORDERED, SELF_JOIN)
        ]
        server.drain()
        assert all(ticket.state == "done" for ticket in tickets)
        assert shark.metrics.value("shuffle.released.blocks") > 0
        assert engine_holds(shark) == NOTHING


class TestLineageKeepsWhatItReads:
    def test_distributed_table_keeps_its_shuffle_and_recovers(self):
        # Worker 2 dies a few tasks into the reading query: its cached
        # partitions of ``spread`` and its map outputs of the CTAS's
        # DISTRIBUTE BY shuffle are gone, and come back through lineage.
        reference = sorted(_build_shark().sql(AGG).rows)
        shark = _build_shark(fault_injector=FaultInjector(seed=3))
        shark.sql(
            "CREATE TABLE spread TBLPROPERTIES ('shark.cache'='true') "
            "AS SELECT * FROM readings DISTRIBUTE BY day"
        )
        kept = engine_holds(shark)
        assert kept["registered"] == shark.engine.cluster.pinned_block_ids()
        assert kept["registered"] and len(kept["stages"]) == 1

        text = AGG.replace("readings", "spread")
        assert sorted(shark.sql(text).rows) == reference
        # The reader released its own GROUP BY shuffle, not the table's.
        assert engine_holds(shark) == kept

        shark.engine.inject_failure(worker_id=2, after_tasks=3)
        assert sorted(shark.sql(text).rows) == reference
        assert not shark.engine.cluster.worker(2).alive
        assert shark.metrics.value("tasks.recovered") > 0
        # Same shuffle, same map partitions, re-homed on live workers.
        assert engine_holds(shark) == kept
        assert kept["registered"] == shark.engine.cluster.pinned_block_ids()

    @pytest.mark.parametrize(
        "select",
        [AGG, "SELECT * FROM readings DISTRIBUTE BY day"],
        ids=["group_by", "distribute_by"],
    )
    @pytest.mark.parametrize("statement", ["DROP TABLE kept", "UNCACHE TABLE kept"])
    def test_dropped_table_gives_its_shuffles_back(self, select, statement):
        shark = _build_shark()
        shark.sql(
            "CREATE TABLE kept TBLPROPERTIES ('shark.cache'='true') AS "
            + select
        )
        assert engine_holds(shark)["registered"]  # its lineage reads them
        shark.sql(statement)
        assert engine_holds(shark) == NOTHING

    def test_a_ctas_keeps_only_the_shuffles_its_table_reads(self):
        # The IN subquery's GROUP BY runs while the CTAS is planned; the
        # table's lineage reads what it decided, not its shuffle.
        shark = _build_shark()
        shark.sql(
            "CREATE TABLE c TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT bucket, day FROM readings WHERE day IN "
            "(SELECT day FROM readings GROUP BY day HAVING COUNT(*) > 0)"
        )
        assert lineage_reads(shark.table_entry("c").cached_rdd)[1] == set()
        assert engine_holds(shark) == NOTHING
        assert shark.sql("SELECT COUNT(*) FROM c").scalar() == len(ROWS)
        shark.sql("DROP TABLE c")
        assert engine_holds(shark) == NOTHING

    def test_a_ctas_group_by_recomputes_byte_identically(self):
        shark = _build_shark()
        shark.sql(
            "CREATE TABLE g TBLPROPERTIES ('shark.cache'='true') AS " + AGG
        )
        table = shark.table_entry("g").cached_rdd
        kept = engine_holds(shark)
        assert kept["registered"]  # the table's lineage reads the shuffle

        def blocks():
            return shark.engine.run_job(
                table,
                lambda blks: (
                    [blks[0].column_bytes(i) for i in range(3)],
                    repr(blks[0].stats),
                ),
            )

        before = blocks()
        holder = table.preferred_workers(0)[0]
        shark.kill_worker(holder)
        assert table.preferred_workers(0) == []
        assert blocks() == before
        assert table.preferred_workers(0) not in ([], [holder])
        assert engine_holds(shark)["registered"] == kept["registered"]

    def test_drop_waits_for_the_last_dependent_table(self):
        # ``copy``'s lineage reads ``spread``'s blocks, which read the
        # DISTRIBUTE BY shuffle: dropping ``spread`` must leave its map
        # outputs until ``copy`` goes too.
        shark = _build_shark(fault_injector=FaultInjector(seed=3))
        shark.sql(
            "CREATE TABLE spread TBLPROPERTIES ('shark.cache'='true') "
            "AS SELECT * FROM readings DISTRIBUTE BY day"
        )
        shark.sql(
            "CREATE TABLE copy TBLPROPERTIES ('shark.cache'='true') "
            "AS SELECT * FROM spread"
        )
        kept = engine_holds(shark)
        shark.sql("DROP TABLE spread")
        assert engine_holds(shark) == kept
        # Drop the source, then lose a worker: the dependent recomputes
        # its lost partitions through the shuffle it kept alive.
        text = AGG.replace("readings", "copy")
        reference = sorted(_build_shark().sql(AGG).rows)
        shark.engine.inject_failure(worker_id=2, after_tasks=3)
        assert sorted(shark.sql(text).rows) == reference
        assert not shark.engine.cluster.worker(2).alive
        assert shark.metrics.value("tasks.recovered") > 0
        assert engine_holds(shark)["registered"] == kept["registered"]
        shark.sql("DROP TABLE copy")
        assert engine_holds(shark) == NOTHING

    @pytest.mark.parametrize("statement", ["DROP TABLE grown", "UNCACHE TABLE grown"])
    def test_dropped_or_uncached_table_gives_every_block_back(self, statement):
        # CTAS + a bulk append + trickle appends (two of which merge):
        # every block of every load leaves its worker's store, not just
        # those of the first.
        shark = _build_shark()
        shark.sql(
            "CREATE TABLE grown TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM readings WHERE day < 5"
        )
        shark.sql("DROP TABLE readings")
        shark.load_rows("grown", ROWS[:600], num_partitions=3)
        for start in (600, 610, 620):
            shark.load_rows("grown", ROWS[start:start + 10], num_partitions=1)
        table = shark.table_entry("grown").cached_rdd
        assert [block.rows for block in table.blocks[-2:]] == [20, 10]
        want = sorted(shark.sql("SELECT * FROM grown").rows)
        assert len(stored_blocks(shark)) == table.num_partitions
        shark.sql(statement)
        assert stored_blocks(shark) == []
        assert engine_holds(shark) == NOTHING
        if statement.startswith("UNCACHE"):
            assert sorted(shark.sql("SELECT * FROM grown").rows) == want

    def test_sql2rdd_plan_survives_other_statements(self):
        shark = _build_shark()
        table_rdd = shark.sql2rdd(AGG)
        first = sorted(table_rdd.collect())
        kept = engine_holds(shark)
        assert kept["registered"]  # lives on the root scope
        shark.sql(ORDERED)
        shark.sql(SELF_JOIN)
        assert engine_holds(shark) == kept
        stages_run = shark.metrics.value("stages.run")
        assert sorted(table_rdd.collect()) == first
        # Its map outputs were still there: no stage ran, the driver
        # merged them again.
        assert shark.metrics.value("stages.run") == stages_run
        assert shark.engine.last_profile.driver_map_outputs > 0


def test_explain_analyze_leaves_the_profile_history_alone():
    shark = _build_shark()
    shark.engine.reset_profiles()
    shark.sql(AGG)
    jobs = len(shark.engine.profiles)
    text = shark.explain_analyze(AGG)
    assert f"runtime profile ({jobs} jobs" in text
    assert len(shark.engine.profiles) == 2 * jobs


def test_profiles_are_the_jobs_outside_lifecycle_queries_in_run_order():
    """A statement hands its jobs to ``engine.profiles`` as it closes and
    an RDD job lands there as it ends; a submitted query's jobs stay on
    its own scope."""
    shark = _build_shark()
    engine = shark.engine
    lifecycle = shark.enable_lifecycle()
    engine.reset_profiles()
    first_job = engine.scheduler._next_job_id
    submitted = shark.submit_sql(AGG, name="submitted")
    shark.sql(ORDERED)
    numbers = engine.parallelize(range(40), 4)
    assert numbers.map(lambda x: (x % 3, x)).reduce_by_key(
        lambda a, b: a + b
    ).count() == 3
    lifecycle.wait(submitted)
    shark.sql(SELF_JOIN)
    assert numbers.count() == 40
    submitted_jobs = {profile.job_id for profile in submitted.scope.profiles}
    assert submitted_jobs
    expected = [
        job_id
        for job_id in range(first_job, engine.scheduler._next_job_id)
        if job_id not in submitted_jobs
    ]
    assert [profile.job_id for profile in engine.profiles] == expected
    assert engine.last_profile is engine.profiles[-1]
