"""Session DDL/DML: CREATE [AS SELECT], INSERT, DROP, CACHE, EXPLAIN."""

import math

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.engine.rdd import BlockListRDD, UnionRDD
from repro.errors import AnalysisError, CatalogError
from repro.sql.parser import parse


@pytest.fixture
def shark():
    shark = SharkContext(num_workers=2)
    shark.sql("CREATE TABLE src (k INT, name STRING, v DOUBLE)")
    shark.sql(
        "INSERT INTO src VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'a', 3.5)"
    )
    return shark


class TestCreate:
    def test_create_and_describe_entry(self, shark):
        entry = shark.table_entry("src")
        assert entry.schema.names == ["k", "name", "v"]
        assert not entry.is_cached
        assert entry.row_count == 3

    def test_duplicate_create_rejected(self, shark):
        with pytest.raises(CatalogError):
            shark.sql("CREATE TABLE src (x INT)")

    def test_if_not_exists_skips(self, shark):
        result = shark.sql("CREATE TABLE IF NOT EXISTS src (x INT)")
        assert "exists" in result.rows[0][0]

    def test_create_without_columns_rejected(self, shark):
        with pytest.raises(AnalysisError):
            shark.sql("CREATE TABLE empty_table")

    def test_cached_create_via_property(self, shark):
        shark.sql(
            "CREATE TABLE mem (a INT) TBLPROPERTIES ('shark.cache'='true')"
        )
        assert shark.table_entry("mem").is_cached

    def test_empty_cached_table_queryable(self, shark):
        shark.sql(
            "CREATE TABLE mem (a INT) TBLPROPERTIES ('shark.cache'='true')"
        )
        assert shark.sql("SELECT COUNT(*) FROM mem").scalar() == 0


class TestCtas:
    def test_ctas_external(self, shark):
        shark.sql("CREATE TABLE derived AS SELECT k, v * 2 AS v2 FROM src")
        result = shark.sql("SELECT k, v2 FROM derived")
        assert sorted(result.rows) == [(1, 3.0), (2, 5.0), (3, 7.0)]
        assert not shark.table_entry("derived").is_cached

    def test_ctas_cached(self, shark):
        shark.sql(
            "CREATE TABLE hot TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT name, COUNT(*) AS c FROM src GROUP BY name"
        )
        entry = shark.table_entry("hot")
        assert entry.is_cached
        assert entry.partition_stats
        assert sorted(shark.sql("SELECT * FROM hot").rows) == [
            ("a", 2), ("b", 1),
        ]

    def test_ctas_distribute_by_records_partitioner(self, shark):
        shark.sql(
            "CREATE TABLE dist TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM src DISTRIBUTE BY k"
        )
        entry = shark.table_entry("dist")
        assert entry.partitioner is not None
        assert entry.distribute_column == "k"

    def test_ctas_size_accounting(self, shark):
        shark.sql(
            "CREATE TABLE hot2 TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM src"
        )
        entry = shark.table_entry("hot2")
        assert entry.size_bytes > 0
        assert entry.partition_bytes


class TestInsert:
    def test_insert_select(self, shark):
        shark.sql("CREATE TABLE sink (k INT, name STRING, v DOUBLE)")
        shark.sql("INSERT INTO sink SELECT * FROM src WHERE k > 1")
        assert shark.sql("SELECT COUNT(*) FROM sink").scalar() == 2

    def test_insert_values_width_check(self, shark):
        with pytest.raises(AnalysisError, match="width"):
            shark.sql("INSERT INTO src VALUES (1, 'x')")

    def test_insert_select_width_check(self, shark):
        with pytest.raises(AnalysisError, match="width"):
            shark.sql("INSERT INTO src SELECT k FROM src")

    def test_insert_appends_to_cached(self, shark):
        shark.sql(
            "CREATE TABLE mem TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM src"
        )
        shark.sql("INSERT INTO mem VALUES (9, 'z', 9.9)")
        assert shark.sql("SELECT COUNT(*) FROM mem").scalar() == 4
        assert shark.table_entry("mem").row_count == 4

    def test_appends_keep_one_level_of_lineage(self, shark):
        # A base of one three-row block: a two-row load that names no
        # partition count then sizes itself to one block, a delta.
        shark.sql("CREATE TABLE wide (k INT, name STRING, v DOUBLE)")
        shark.load_rows(
            "wide", shark.sql("SELECT * FROM src").rows, num_partitions=1
        )
        shark.sql(
            "CREATE TABLE mem TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM wide"
        )
        entry = shark.table_entry("mem")
        base = entry.cached_rdd.num_partitions
        rows = shark.sql("SELECT * FROM mem").rows
        for appends, k in enumerate(range(10, 16), start=1):
            shark.load_rows("mem", [(k, "n", 0.5), (k, "m", 1.5)])
            rows += [(k, "n", 0.5), (k, "m", 1.5)]
            table = entry.cached_rdd
            # Every block's cached load is a direct parent of the table:
            # depth one however many appends came before.
            parents = [dep.rdd for dep in table.dependencies]
            assert parents == [block.rdd for block in table.blocks]
            assert all(parent.is_cached for parent in parents)
            assert not any(
                isinstance(parent, (BlockListRDD, UnionRDD))
                for parent in parents
            )
            assert table.num_partitions == len(entry.partition_stats) == len(
                entry.partition_bytes
            )
            # Equal trickles merge like a binary counter: O(log n) deltas.
            assert table.num_partitions <= (
                base + math.ceil(math.log2(appends)) + 1
            )
            assert shark.sql("SELECT * FROM mem").rows == rows
        assert entry.row_count == len(rows)

    def test_insert_into_missing_table(self, shark):
        with pytest.raises(CatalogError):
            shark.sql("INSERT INTO ghost VALUES (1)")


class TestDrop:
    def test_drop_removes(self, shark):
        shark.sql("DROP TABLE src")
        with pytest.raises(CatalogError):
            shark.sql("SELECT * FROM src")

    def test_drop_missing_without_if_exists(self, shark):
        with pytest.raises(CatalogError):
            shark.sql("DROP TABLE ghost")

    def test_drop_if_exists(self, shark):
        shark.sql("DROP TABLE IF EXISTS ghost")

    def test_drop_cached_unpersists(self, shark):
        shark.sql(
            "CREATE TABLE mem TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM src"
        )
        rdd = shark.table_entry("mem").cached_rdd
        shark.sql("DROP TABLE mem")
        assert not rdd.is_cached


    def test_drop_external_deletes_its_file(self, shark):
        path = shark.table_entry("src").path
        assert shark.store.exists(path)
        shark.sql("DROP TABLE src")
        assert not shark.store.exists(path)

    def test_programmatic_recreate_after_drop_sees_only_second_load(self):
        # create -> load -> drop -> create -> load -> scan.  The drop used
        # to leave the DFS file behind and create_table(cached=False) then
        # died with "file already exists".
        shark = SharkContext(num_workers=2)
        schema = Schema.of(("k", INT), ("name", STRING))
        shark.create_table("ext", schema, cached=False)
        shark.load_rows("ext", [(1, "old"), (2, "old")])
        shark.drop_table("ext")
        shark.create_table("ext", schema, cached=False)
        shark.load_rows("ext", [(3, "new")])
        assert shark.sql("SELECT * FROM ext").rows == [(3, "new")]

    def test_duplicate_programmatic_create_leaves_the_rows_intact(self):
        # The catalog refuses the name before the store is touched: the
        # failed call must not truncate the existing table's file.
        shark = SharkContext(num_workers=2)
        schema = Schema.of(("k", INT), ("name", STRING))
        shark.create_table("ext", schema, cached=False)
        shark.load_rows("ext", [(1, "a"), (2, "b")])
        with pytest.raises(CatalogError, match="already exists"):
            shark.create_table("ext", schema, cached=False)
        assert sorted(shark.sql("SELECT * FROM ext").rows) == [
            (1, "a"), (2, "b")
        ]

    def test_programmatic_create_overwrites_a_stale_file(self):
        shark = SharkContext(num_workers=2)
        shark.store.write_file("/warehouse/ext", [b"9\x01stale\n"])
        shark.create_table(
            "ext", Schema.of(("k", INT), ("name", STRING)), cached=False
        )
        assert shark.sql("SELECT * FROM ext").rows == []

    def test_recreate_after_drop_replays_from_the_journal(self):
        from repro.storage import DistributedFileStore

        store = DistributedFileStore()
        shark = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        shark.sql("CREATE TABLE ext (k INT, name STRING)")
        shark.load_rows("ext", [(1, "old"), (2, "old")])
        shark.sql("DROP TABLE ext")
        shark.sql("CREATE TABLE ext (k INT, name STRING)")
        shark.load_rows("ext", [(3, "new"), (4, "new")])
        expected = [(3, "new"), (4, "new")]
        assert sorted(shark.sql("SELECT * FROM ext").rows) == expected
        recovered = SharkContext.recover(store, num_workers=2)
        assert sorted(recovered.sql("SELECT * FROM ext").rows) == expected


class TestDropKeepsDependentsRecomputable:
    """A cached table made from an external one recomputes lost partitions
    from the external table's file: DROP of the source keeps that file
    until the last such dependent is gone."""

    ROWS = [(i, "n%d" % (i % 7), i * 0.5) for i in range(100)]
    PATH = "/warehouse/t"

    @pytest.fixture
    def shark(self):
        shark = SharkContext(num_workers=4)
        shark.sql("CREATE TABLE t (k INT, name STRING, v DOUBLE)")
        shark.load_rows("t", self.ROWS)
        return shark

    def _lose_partitions(self, shark):
        for worker in (0, 1, 2):
            shark.kill_worker(worker)

    @pytest.mark.parametrize(
        "select", ["SELECT * FROM t", "SELECT k, v FROM t WHERE k >= 0"]
    )
    def test_ctas_recomputes_after_its_source_is_dropped(self, shark, select):
        shark.sql(
            "CREATE TABLE c TBLPROPERTIES ('shark.cache'='true') AS " + select
        )
        shark.sql("DROP TABLE t")
        self._lose_partitions(shark)
        assert shark.sql("SELECT COUNT(*) FROM c").scalar() == 100
        assert shark.sql("SELECT SUM(k) FROM c").scalar() == sum(range(100))

    def test_the_file_goes_with_the_last_dependent(self, shark):
        for name in ("c1", "c2"):
            shark.sql(
                f"CREATE TABLE {name} TBLPROPERTIES ('shark.cache'='true') "
                "AS SELECT * FROM t"
            )
        # c3 reads t's file only through c1's lineage.
        shark.sql(
            "CREATE TABLE c3 TBLPROPERTIES ('shark.cache'='true') "
            "AS SELECT k FROM c1"
        )
        shark.sql("DROP TABLE t")
        assert shark.store.exists(self.PATH)
        shark.sql("DROP TABLE c1")
        shark.sql("DROP TABLE c2")
        assert shark.store.exists(self.PATH)
        self._lose_partitions(shark)
        assert shark.sql("SELECT COUNT(*) FROM c3").scalar() == 100
        shark.sql("DROP TABLE c3")
        assert not shark.store.exists(self.PATH)

    def test_a_recreated_name_keeps_its_new_file(self, shark):
        shark.sql(
            "CREATE TABLE c TBLPROPERTIES ('shark.cache'='true') "
            "AS SELECT * FROM t"
        )
        shark.sql("DROP TABLE t")
        shark.sql("CREATE TABLE t (k INT, name STRING, v DOUBLE)")
        shark.load_rows("t", [(7, "new", 7.0)])
        # Dropping the old t's last dependent must not reap the new t.
        shark.sql("DROP TABLE c")
        assert shark.sql("SELECT * FROM t").rows == [(7, "new", 7.0)]
        shark.sql("DROP TABLE t")
        assert not shark.store.exists(self.PATH)

    def test_cache_table_then_drop_deletes_the_file(self, shark):
        shark.sql("CACHE TABLE t")
        self._lose_partitions(shark)
        assert shark.sql("SELECT COUNT(*) FROM t").scalar() == 100
        shark.sql("DROP TABLE t")
        assert not shark.store.exists(self.PATH)


class TestRaggedLoad:
    """A row of the wrong width is refused up front with the error INSERT
    raises, never truncated by the transpose or failed inside a task."""

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("bad", [(9,), (9, "x", 1.0, "extra")])
    def test_load_rows_validates_width(self, cached, bad):
        shark = SharkContext(num_workers=2)
        shark.create_table(
            "t",
            Schema.of(("k", INT), ("name", STRING), ("v", DOUBLE)),
            cached=cached,
        )
        with pytest.raises(AnalysisError, match="table width 3"):
            shark.load_rows("t", [(1, "a", 1.0), bad])
        # Nothing was loaded, and the table still takes good rows.
        assert shark.sql("SELECT COUNT(*) FROM t").scalar() == 0
        shark.load_rows("t", [(1, "a", 1.0)])
        assert shark.sql("SELECT * FROM t").rows == [(1, "a", 1.0)]

    def test_insert_width_error_is_the_same_type(self, shark):
        with pytest.raises(AnalysisError):
            shark.sql("INSERT INTO src VALUES (1, 'a')")


class TestExternalToCachedStaysColumnar:
    """CTAS / CACHE TABLE straight from an external table decode text into
    columns and encode those: same rows, schemes and bytes as via rows."""

    def _blocks(self, shark, name):
        entry = shark.table_entry(name)
        return shark.engine.run_job(entry.cached_rdd, lambda blks: blks[0])

    def test_verbatim_ctas_matches_a_row_wise_load(self, shark):
        shark.sql(
            "CREATE TABLE copy TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM src"
        )
        shark.sql(
            "CREATE TABLE by_rows (k INT, name STRING, v DOUBLE) "
            "TBLPROPERTIES ('shark.cache'='true')"
        )
        rows = shark.sql("SELECT * FROM src").rows
        shark.load_rows("by_rows", rows, num_partitions=1)
        assert sorted(shark.sql("SELECT * FROM copy").rows) == sorted(rows)
        copied = self._blocks(shark, "copy")
        loaded = self._blocks(shark, "by_rows")
        assert sum(block.num_rows for block in copied) == len(rows)
        assert {tuple(b.compression_schemes()) for b in copied} == {
            tuple(b.compression_schemes()) for b in loaded
        }
        assert shark.table_entry("copy").row_count == 3

    def test_cache_table_from_external(self, shark):
        before = sorted(shark.sql("SELECT * FROM src").rows)
        shark.sql("CACHE TABLE src")
        assert sorted(shark.sql("SELECT * FROM src").rows) == before
        assert shark.sql(
            "SELECT name, SUM(v) FROM src GROUP BY name ORDER BY name"
        ).rows == [("a", 5.0), ("b", 2.5)]

    def test_identity_select_lists_plan_to_the_bare_scan(self, shark):
        from repro.storage import HdfsRDD

        # Any projection that passes every column through in order is the
        # scan itself, renamed or not, so its CTAS loads column-wise too.
        def bare(planned):  # the decoded blocks, every column in order
            batches = planned.batches
            return (
                batches.name == "external_scan"
                and isinstance(batches.dependencies[0].rdd, HdfsRDD)
                and len(planned.schema) == 3
            )

        for select in (
            "SELECT * FROM src",
            "SELECT k, name, v FROM src",
            "SELECT k AS key, name AS label, v AS amount FROM src",
        ):
            assert bare(shark.session.plan_select(parse(select))), select
        for select in ("SELECT v, name, k FROM src", "SELECT k, name FROM src"):
            assert not bare(shark.session.plan_select(parse(select))), select
        shark.sql(
            "CREATE TABLE renamed TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT k AS key, name AS label, v AS amount FROM src"
        )
        assert shark.table_entry("renamed").schema.names == [
            "key", "label", "amount"
        ]
        assert sorted(shark.sql("SELECT key, amount FROM renamed").rows) == [
            (1, 1.5), (2, 2.5), (3, 3.5)
        ]

    def test_binary_format_files_load_column_wise_too(self, shark):
        from repro.columnar.serde import BinarySerde

        rows = [(1, "a", 1.5), (2, None, 2.5), (3, "c", None)]
        schema = shark.table_entry("src").schema
        shark.store.write_file(
            "/warehouse/src", [BinarySerde(schema).encode(rows)],
            format="binary", overwrite=True,
        )
        assert shark.sql("SELECT * FROM src").rows == rows
        shark.sql(
            "CREATE TABLE copy TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM src"
        )
        shark.sql("CACHE TABLE src")
        assert shark.sql("SELECT * FROM copy").rows == rows
        assert shark.sql("SELECT * FROM src").rows == rows

    def test_projecting_ctas_still_goes_through_rows(self, shark):
        shark.sql(
            "CREATE TABLE part TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT name, k FROM src WHERE k > 1"
        )
        assert sorted(shark.sql("SELECT * FROM part").rows) == [
            ("a", 3), ("b", 2)
        ]

    def test_ctas_from_an_empty_external_table(self, shark):
        shark.sql("CREATE TABLE hollow (k INT, name STRING)")
        shark.sql(
            "CREATE TABLE hollow_mem TBLPROPERTIES ('shark.cache'='true') "
            "AS SELECT * FROM hollow"
        )
        assert shark.sql("SELECT COUNT(*) FROM hollow_mem").scalar() == 0


class TestCacheStatements:
    def test_cache_table_flips_kind(self, shark):
        shark.sql("CACHE TABLE src")
        entry = shark.table_entry("src")
        assert entry.is_cached
        assert shark.sql("SELECT COUNT(*) FROM src").scalar() == 3

    def test_uncache_table_spills_to_store(self, shark):
        shark.sql("CACHE TABLE src")
        shark.sql("UNCACHE TABLE src")
        entry = shark.table_entry("src")
        assert not entry.is_cached
        assert shark.sql("SELECT COUNT(*) FROM src").scalar() == 3

    def test_cache_idempotent(self, shark):
        shark.sql("CACHE TABLE src")
        result = shark.sql("CACHE TABLE src")
        assert "already" in result.rows[0][0]


class TestExplain:
    def test_explain_shows_plan_tree(self, shark):
        text = shark.explain(
            "SELECT name, COUNT(*) FROM src WHERE k > 1 GROUP BY name"
        )
        assert "Aggregate" in text
        assert "Scan(src" in text
        assert "Filter" in text

    def test_explain_join_shows_keys(self, shark):
        text = shark.explain(
            "SELECT a.k FROM src a JOIN src b ON a.k = b.k"
        )
        assert "Join(inner" in text

    def test_explain_ctas(self, shark):
        result = shark.sql("EXPLAIN CREATE TABLE x AS SELECT k FROM src")
        assert result.plan_text


class TestQueryResultApi:
    def test_column_accessors(self, shark):
        result = shark.sql("SELECT k, name FROM src ORDER BY k")
        assert result.column("k") == [1, 2, 3]
        assert result.column_names == ["k", "name"]
        assert result.to_dicts()[0] == {"k": 1, "name": "a"}
        assert len(result) == 3
        assert list(iter(result))[0] == (1, "a")

    def test_scalar_validation(self, shark):
        with pytest.raises(ValueError):
            shark.sql("SELECT k FROM src").scalar()
