"""Master recovery (paper footnote 4): journal + replay.

The original master journals every catalog-mutating operation to the
reliable store; a brand-new master (fresh engine, fresh workers, fresh
catalog) replays the journal and serves identical query results.
"""

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.engine import LifecycleConfig
from repro.sql.journal import JOURNAL_PATH, MasterJournal
from repro.storage import DistributedFileStore


def _build_warehouse(shark: SharkContext) -> None:
    shark.sql(
        "CREATE TABLE sales (region STRING, amount DOUBLE) "
        "TBLPROPERTIES ('shark.cache'='true')"
    )
    shark.sql(
        "INSERT INTO sales VALUES ('n', 10.5), ('s', 20.0), ('n', 1.5)"
    )
    shark.load_rows("sales", [("e", 7.0), ("w", 3.0)])
    shark.sql("CREATE TABLE ext (k INT, v STRING)")
    shark.sql("INSERT INTO ext VALUES (1, 'a'), (2, 'b')")
    shark.sql(
        "CREATE TABLE derived TBLPROPERTIES ('shark.cache'='true') AS "
        "SELECT region, SUM(amount) AS total FROM sales GROUP BY region"
    )
    shark.sql("CREATE TABLE scratch (x INT)")
    shark.sql("DROP TABLE scratch")


CHECK_QUERIES = [
    "SELECT region, SUM(amount) FROM sales GROUP BY region",
    "SELECT COUNT(*) FROM ext",
    "SELECT region, total FROM derived",
    "SELECT s.region, e.v FROM sales s JOIN ext e ON 1 = e.k",
]


class TestJournal:
    def test_operations_journaled(self):
        store = DistributedFileStore()
        shark = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        _build_warehouse(shark)
        journal = MasterJournal(store)
        kinds = [record["kind"] for record in journal.records()]
        assert kinds.count("statement") == 7
        assert kinds.count("load") == 1

    def test_selects_not_journaled(self):
        store = DistributedFileStore()
        shark = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        shark.sql("CREATE TABLE t (a INT)")
        before = len(MasterJournal(store))
        shark.sql("SELECT COUNT(*) FROM t")
        shark.explain("SELECT a FROM t")
        assert len(MasterJournal(store)) == before

    def test_journaling_off_by_default(self):
        store = DistributedFileStore()
        shark = SharkContext(num_workers=2, store=store)
        shark.sql("CREATE TABLE t (a INT)")
        assert not store.exists(JOURNAL_PATH)

    def test_failed_statement_not_journaled(self):
        store = DistributedFileStore()
        shark = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        with pytest.raises(Exception):
            shark.sql("CREATE TABLE bad AS SELECT missing FROM nowhere")
        assert len(MasterJournal(store)) == 0


class TestRecovery:
    def test_new_master_serves_identical_results(self):
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        _build_warehouse(original)
        expected = {
            query: sorted(original.sql(query).rows, key=repr)
            for query in CHECK_QUERIES
        }

        # The master "dies": a brand-new context replays the journal.
        recovered = SharkContext.recover(store, num_workers=3)
        for query, rows in expected.items():
            assert sorted(recovered.sql(query).rows, key=repr) == rows, query

    def test_recovered_catalog_metadata(self):
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        _build_warehouse(original)
        recovered = SharkContext.recover(store)
        assert recovered.session.catalog.table_names() == (
            original.session.catalog.table_names()
        )
        entry = recovered.table_entry("sales")
        assert entry.is_cached
        assert entry.row_count == 5
        assert not recovered.session.catalog.exists("scratch")

    def test_recovered_master_keeps_journaling(self):
        store = DistributedFileStore()
        first = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        first.sql("CREATE TABLE a (x INT)")
        second = SharkContext.recover(store)
        second.sql("CREATE TABLE b (y INT)")
        # A third master sees operations from both previous lives.
        third = SharkContext.recover(store)
        assert third.session.catalog.table_names() == ["a", "b"]

    def test_copartitioning_survives_recovery(self):
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        original.sql(
            "CREATE TABLE raw_l (k INT, v DOUBLE) "
            "TBLPROPERTIES ('shark.cache'='true')"
        )
        original.load_rows(
            "raw_l", [(i % 10, float(i)) for i in range(100)]
        )
        original.sql(
            "CREATE TABLE lm TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT * FROM raw_l DISTRIBUTE BY k"
        )
        original.sql(
            "CREATE TABLE om TBLPROPERTIES ('shark.cache'='true', "
            "'copartition'='lm') AS "
            "SELECT k, v * 10 AS w FROM raw_l DISTRIBUTE BY k"
        )
        recovered = SharkContext.recover(store)
        result = recovered.sql(
            "SELECT COUNT(*) FROM lm JOIN om ON lm.k = om.k"
        )
        decisions = [
            d.strategy for d in recovered.last_report.join_decisions
        ]
        assert decisions == ["copartitioned"]
        assert result.scalar() == 1000

    @pytest.mark.parametrize(
        "statements",
        [
            ["CREATE TABLE t (x DOUBLE)", "INSERT INTO t VALUES (0.0000001)"],
            [
                "CREATE TABLE s (a DOUBLE) TBLPROPERTIES ('shark.cache'='true')",
                "INSERT INTO s VALUES (2.0), (3.5)",
                "CREATE TABLE t AS SELECT a * 0.00001 AS x FROM s",
            ],
            ["CREATE TABLE t (`select` INT)", "INSERT INTO t VALUES (1)"],
            [
                "CREATE TABLE t (x INT) TBLPROPERTIES ('note'='it''s')",
                "INSERT INTO t VALUES (7)",
            ],
        ],
        ids=["small-literal", "small-literal-in-ctas", "backquoted", "quote"],
    )
    def test_statements_replay_as_submitted(self, statements):
        """The journal keeps each statement's submitted text, so replay
        parses exactly what the original master parsed."""
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        for text in statements:
            original.sql(text)
        recovered = SharkContext.recover(store)
        query = "SELECT * FROM t"
        assert repr(recovered.sql(query).rows) == repr(
            original.sql(query).rows
        )
        assert recovered.table_entry("t").properties == (
            original.table_entry("t").properties
        )

    def test_interleaved_statements_each_journal_their_own_text(self):
        """Lifecycle queries interleave on one session: a CTAS and an
        INSERT running side by side are each journaled, as their own
        text."""
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        for name in ("s", "u"):
            original.sql(
                f"CREATE TABLE {name} (k INT, v INT) "
                "TBLPROPERTIES ('shark.cache'='true')"
            )
        original.load_rows(
            "s", [(i % 7, i) for i in range(400)], num_partitions=8
        )
        lifecycle = original.enable_lifecycle(
            LifecycleConfig(max_concurrent=2)
        )
        original.submit_sql(
            "CREATE TABLE a TBLPROPERTIES ('shark.cache'='true') AS "
            "SELECT k, SUM(v) AS t FROM s GROUP BY k"
        )
        original.submit_sql("INSERT INTO u SELECT k, v FROM s WHERE v < 50")
        lifecycle.drain()
        recovered = SharkContext.recover(store)
        for query in ("SELECT * FROM a", "SELECT * FROM u"):
            assert sorted(recovered.sql(query).rows) == sorted(
                original.sql(query).rows
            ), query

    def test_dml_on_cached_table_replays(self):
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        original.sql(
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true')"
        )
        original.sql("INSERT INTO t VALUES (1), (2)")
        original.sql("INSERT INTO t SELECT a + 10 FROM t")
        want = sorted(original.sql("SELECT a FROM t").rows)
        recovered = SharkContext.recover(store)
        assert sorted(recovered.sql("SELECT a FROM t").rows) == want
