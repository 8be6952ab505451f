"""Hive lowering: job shapes, and the JobStats the engine gives them.

Every Hive run here goes through :func:`_run`, which also holds the run
to the engine's cleanup invariants: the execution ledger is back at
zero with no clamped release, no shuffle block is retained, and no
intermediate file is left in the file store.
"""

import pytest

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.columnar.serde import TextSerde
from repro.datatypes import DOUBLE, INT, STRING, ArrayType, MapType, Schema
from repro.errors import UnsupportedFeatureError
from repro.sql import physical

WORDS = ["the quick brown fox", "the lazy dog", "the fox jumps"]


@pytest.fixture(scope="module")
def systems():
    shark = SharkContext(num_workers=3)
    shark.create_table(
        "t", Schema.of(("k", INT), ("g", STRING), ("v", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "t",
        [(i % 10, f"g{i % 3}", float(i)) for i in range(120)],
    )
    shark.create_table("small", Schema.of(("n", INT), ("s", STRING)))
    shark.load_rows("small", [(1, "a"), (None, None), (3, "c")])
    shark.create_table("words", Schema.of(("line", INT), ("w", STRING)))
    shark.load_rows(
        "words",
        [(i, w) for i, line in enumerate(WORDS) for w in line.split()],
        num_partitions=2,
    )
    shark.create_table("empty", Schema.of(("k", INT)), cached=True)
    shark.create_table("blank", Schema.of(("s", STRING)), cached=True)
    shark.load_rows("blank", [("",), ("",)])
    shark.create_table("texts", Schema.of(("s", STRING)), cached=True)
    shark.load_rows("texts", [("one\ntwo",), ("x\x01y",), ("\\N",)])
    shark.create_table(
        "nested",
        Schema.of(
            ("k", INT), ("a", ArrayType(STRING)), ("m", MapType(STRING, STRING))
        ),
        cached=True,
    )
    shark.load_rows("nested", [(1, ["a,b", "c"], {"x:y": "1"}), (2, ["d"], {})])
    hive = HiveExecutor(shark.session)
    return shark, hive


def _run(hive, query):
    """One Hive run, and the invariants every run must leave behind."""
    run = hive.execute(query)
    engine = hive.ctx
    assert engine.invariant_violations() == []
    assert not engine.shuffle_manager.registered_block_ids()
    assert not [
        path for path in hive.store.list_files()
        if not path.startswith("/warehouse/")
    ]
    return run


def _text_bytes(shark, table):
    """``table``'s rows as Hive stores them: text, block by block."""
    entry = shark.table_entry(table)
    rdd = physical.rows_of(shark.session._scan_batches(entry))
    blocks = shark.engine.run_job(rdd, list)
    return sum(len(TextSerde(entry.schema).encode(block)) for block in blocks)


class TestOperatorJobShapes:
    def test_distinct_is_one_shuffle_job(self, systems):
        shark, hive = systems
        run = _run(hive, "SELECT DISTINCT g FROM t")
        shuffle_jobs = [j for j in run.jobs if j.reduce_tasks > 0]
        assert len(shuffle_jobs) == 1
        assert shuffle_jobs[0].name == "distinct"
        # hive.map.aggr: the map side drops duplicates before the shuffle.
        assert shuffle_jobs[0].used_combiner
        assert shuffle_jobs[0].map_output_records < 120
        assert sorted(run.rows) == sorted(shark.sql(
            "SELECT DISTINCT g FROM t"
        ).rows)

    def test_union_branches_run_separately(self, systems):
        shark, hive = systems
        query = (
            "SELECT k FROM t WHERE v > 100 "
            "UNION ALL SELECT k FROM t WHERE v < 10"
        )
        run = _run(hive, query)
        assert [job.name for job in run.jobs] == ["union_branch"] * 2
        assert sorted(run.rows) == sorted(shark.sql(query).rows)

    def test_distribute_by_is_shuffle(self, systems):
        shark, hive = systems
        run = _run(hive, "SELECT k, v FROM t DISTRIBUTE BY k")
        assert any(j.name == "distribute_by" for j in run.jobs)
        assert len(run.rows) == 120

    def test_limit_caps_rows(self, systems):
        shark, hive = systems
        run = _run(hive, "SELECT k FROM t LIMIT 7")
        assert len(run.rows) == 7
        assert run.jobs[-1].output_records == 7

    def test_order_by_total_order(self, systems):
        shark, hive = systems
        run = _run(hive, "SELECT v FROM t ORDER BY v DESC LIMIT 5")
        values = [row[0] for row in run.rows]
        assert values == sorted(values, reverse=True)
        assert values == [
            row[0]
            for row in shark.sql(
                "SELECT v FROM t ORDER BY v DESC LIMIT 5"
            ).rows
        ]
        (job,) = run.jobs
        assert (job.name, job.reduce_tasks) == ("order_by", 1)

    def test_scan_input_bytes_are_on_storage_sizes(self, systems):
        shark, hive = systems
        run = _run(hive, "SELECT g, COUNT(*) FROM t GROUP BY g")
        # Hive reads the full encoded table regardless of projection.
        from repro.columnar.serde import TextSerde

        entry = shark.table_entry("t")
        rdd = physical.rows_of(shark.session._scan_batches(entry))
        blocks = shark.engine.run_job(rdd, list)
        expected = sum(
            len(TextSerde(entry.schema).encode(block)) for block in blocks
        )
        assert run.jobs[0].input_bytes == expected

    def test_combiner_flag_set_for_aggregations(self, systems):
        __, hive = systems
        run = _run(hive, "SELECT g, SUM(v) FROM t GROUP BY g")
        assert run.jobs[0].used_combiner

    def test_subquery_fused_into_outer_job(self, systems):
        shark, hive = systems
        query = (
            "SELECT g, COUNT(*) FROM "
            "(SELECT g, v FROM t WHERE v > 20) sub GROUP BY g"
        )
        run = _run(hive, query)
        # Filter + projection fuse into the aggregate job's map phase.
        assert run.num_jobs == 1
        assert sorted(run.rows) == sorted(shark.sql(query).rows)


HAVING = "SELECT g, COUNT(*) c FROM t GROUP BY g HAVING COUNT(*) > 1000"


class TestFusedChainsAndJobInputs:
    def test_having_is_counted_after_it_runs(self, systems):
        __, hive = systems
        run = _run(hive, HAVING)
        (aggregate,) = run.jobs
        assert run.rows == []
        assert (aggregate.output_records, aggregate.output_bytes) == (0, 0)

    def test_a_job_materializes_what_its_having_kept(self, systems):
        shark, hive = systems
        query = f"SELECT s.g, t.k FROM ({HAVING}) s JOIN t ON s.g = t.g"
        run = _run(hive, query)
        aggregate, join = run.jobs
        assert aggregate.materialized_output
        assert aggregate.output_records == 0
        assert join.input_records == 120
        assert run.rows == shark.sql(query).rows == []

    def test_a_join_reads_the_job_side_from_the_file_store(self, systems):
        shark, hive = systems
        query = (
            "SELECT s.g, s.c, t.k FROM "
            "(SELECT g, COUNT(*) c FROM t GROUP BY g) s "
            "JOIN t ON s.g = t.g"
        )
        run = _run(hive, query)
        aggregate, join = run.jobs
        assert aggregate.materialized_output and aggregate.output_bytes > 0
        assert join.input_records == aggregate.output_records + 120
        assert join.input_bytes == (
            aggregate.output_bytes + _text_bytes(shark, "t")
        )
        assert sorted(run.rows) == sorted(shark.sql(query).rows)

    def test_a_cross_join_is_a_single_reducer_job(self, systems):
        shark, hive = systems
        query = "SELECT t.k, small.s FROM t, small WHERE t.k < small.n"
        run = _run(hive, query)
        (cross,) = run.jobs
        assert (cross.name, cross.reduce_tasks) == ("cross_join", 1)
        assert cross.map_tasks == (
            shark.table_entry("t").cached_rdd.num_partitions
            + shark.store.file("/warehouse/small").num_blocks
        )
        assert cross.input_records == 123
        assert cross.input_bytes == (
            _text_bytes(shark, "t") + _text_bytes(shark, "small")
        )
        assert cross.output_records == len(run.rows) > 0
        assert sorted(run.rows) == sorted(shark.sql(query).rows)

    def test_an_empty_string_row_survives_the_file_store(self, systems):
        """DISTINCT leaves one partition holding one row of one empty
        string: its block is b"\\n", and the next job reads the row."""
        shark, hive = systems
        query = (
            "SELECT x.s, COUNT(*) FROM (SELECT DISTINCT s FROM blank) x "
            "GROUP BY x.s"
        )
        run = _run(hive, query)
        distinct, aggregate = run.jobs
        assert distinct.materialized_output and distinct.output_records == 1
        assert aggregate.input_records == 1
        assert run.rows == shark.sql(query).rows == [("", 1)]

    @pytest.mark.parametrize("value", ["one\ntwo", "x\x01y", "\\N"])
    def test_rows_with_escaped_strings_are_carried(self, systems, value):
        """A string holding a newline or the field delimiter, or equal to
        the NULL token, is escaped in the text intermediate and reads back
        as written (unescaped, it read back as other rows and the query
        failed)."""
        shark, hive = systems
        query = (
            "SELECT x.s, COUNT(*) FROM (SELECT DISTINCT s FROM texts "
            f"WHERE s = '{value}') x GROUP BY x.s"
        )
        assert shark.sql(query).rows == [(value, 1)]
        run = _run(hive, query)
        assert run.jobs[0].materialized_output
        assert run.rows == [(value, 1)]
        assert not [
            path for path in hive.store.list_files()
            if not path.startswith("/warehouse/")
        ]

    @pytest.mark.parametrize("column", ["a", "m"])
    def test_rows_text_cannot_carry_are_an_error(self, systems, column):
        """An ARRAY element holding ``,`` or a MAP key holding ``:`` is not
        escaped (only STRING fields are) and would read back as other
        values: the query fails instead, and leaves no file behind."""
        shark, hive = systems
        query = (
            f"SELECT x.k, x.{column} FROM (SELECT k, {column} FROM nested "
            "DISTRIBUTE BY k) x ORDER BY x.k"
        )
        expected = {
            "a": [(1, ["a,b", "c"]), (2, ["d"])],
            "m": [(1, {"x:y": "1"}), (2, {})],
        }
        assert shark.sql(query).rows == expected[column]
        with pytest.raises(UnsupportedFeatureError, match="cannot hold"):
            hive.execute(query)
        assert not [
            path for path in hive.store.list_files()
            if not path.startswith("/warehouse/")
        ]

    def test_jobs_feeding_a_cross_join_are_materialized(self, systems):
        shark, hive = systems
        query = (
            "SELECT a.g, small.n FROM "
            "(SELECT g, COUNT(*) c FROM t GROUP BY g) a, small"
        )
        run = _run(hive, query)
        aggregate, cross = run.jobs
        assert aggregate.materialized_output
        assert cross.input_records == 3 + 3
        assert sorted(run.rows, key=repr) == sorted(
            shark.sql(query).rows, key=repr
        )


class TestJobStats:
    """What the MapReduce engine's own tests held, asserted of Hive
    queries."""

    def test_classic_word_count(self, systems):
        __, hive = systems
        run = _run(hive, "SELECT w, COUNT(*) FROM words GROUP BY w")
        counts = dict(run.rows)
        assert counts["the"] == 3
        assert counts["fox"] == 2
        assert counts["dog"] == 1

    def test_combiner_shrinks_map_output(self, systems):
        __, hive = systems
        combined = _run(hive, "SELECT w, COUNT(*) FROM words GROUP BY w")
        shuffled = _run(hive, "SELECT w FROM words DISTRIBUTE BY w")
        assert combined.jobs[0].used_combiner
        assert not shuffled.jobs[0].used_combiner
        assert shuffled.jobs[0].map_output_records == 10
        assert combined.jobs[0].map_output_records < 10

    def test_task_counts(self, systems):
        shark, __ = systems
        hive = HiveExecutor(shark.session, num_reducers=2)
        (job,) = _run(hive, "SELECT w, COUNT(*) FROM words GROUP BY w").jobs
        assert job.map_tasks == 2  # one a stored block
        assert job.reduce_tasks == 2
        assert job.input_records == 10
        (job,) = _run(hive, "SELECT COUNT(*) FROM words").jobs
        assert job.reduce_tasks == 1

    def test_map_only_job_has_no_shuffle(self, systems):
        __, hive = systems
        run = _run(hive, "SELECT UPPER(w) FROM words WHERE line = 1")
        (job,) = run.jobs
        assert (job.name, job.reduce_tasks, job.shuffle_bytes) == (
            "final_map", 0, 0,
        )
        assert job.map_output_records == job.output_records == 3
        assert sorted(run.rows) == [("DOG",), ("LAZY",), ("THE",)]

    def test_shuffle_bytes_recorded(self, systems):
        __, hive = systems
        (job,) = _run(hive, "SELECT w, COUNT(*) FROM words GROUP BY w").jobs
        assert job.shuffle_bytes > 0
        assert job.output_bytes > 0

    def test_materialized_only_when_read_by_a_job(self, systems):
        __, hive = systems
        run = _run(
            hive,
            "SELECT c, COUNT(*) FROM "
            "(SELECT w, COUNT(*) c FROM words GROUP BY w) x GROUP BY c",
        )
        assert [job.materialized_output for job in run.jobs] == [True, False]
        assert sorted(run.rows) == [(1, 5), (2, 1), (3, 1)]

    def test_same_key_same_reducer(self, systems):
        __, hive = systems
        run = _run(hive, "SELECT g, COUNT(*) FROM t GROUP BY g")
        assert sorted(run.rows) == [("g0", 40), ("g1", 40), ("g2", 40)]

    def test_null_keys_group_and_sort(self, systems):
        __, hive = systems
        run = _run(hive, "SELECT n, COUNT(*) FROM small GROUP BY n ORDER BY n")
        assert run.rows == [(None, 1), (1, 1), (3, 1)]
        assert [job.name for job in run.jobs] == ["aggregate", "order_by"]

    def test_rejects_bad_reducer_count(self, systems):
        shark, __ = systems
        with pytest.raises(ValueError):
            HiveExecutor(shark.session, num_reducers=0)

    def test_empty_input(self, systems):
        __, hive = systems
        run = _run(hive, "SELECT k, COUNT(*) FROM empty GROUP BY k")
        assert run.rows == []
        assert run.jobs[0].input_records == 0
