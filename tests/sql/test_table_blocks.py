"""A cached table is one block list; trickle appends merge into its tail.

The table's storage is a :class:`~repro.engine.rdd.BlockListRDD`: bulk
loads, CTAS and DISTRIBUTE BY blocks are kept as the caller split them,
a load that arrives as one block is a *delta* and absorbs the trailing
deltas no larger than itself.  Checked against a plain list of rows:
contents and order, the catalog's counts, write amplification, lineage
(fault, eviction, snapshot) and master recovery.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SharkContext
from repro.columnar.batch import ColumnBatch
from repro.columnar.table import ColumnarPartition
from repro.datatypes import INT, STRING, Schema
from repro.faults import FaultInjector
from repro.sql.planner import PlannerConfig
from repro.storage import DistributedFileStore
from tests.conftest import stored_blocks

SCHEMA = Schema.of(("k", INT), ("s", STRING), ("v", INT))
CACHED = "TBLPROPERTIES ('shark.cache'='true')"


def _rows(start: int, count: int) -> list[tuple]:
    """Rows numbered from ``start``: load order is visible in ``k``."""
    return [
        (i, f"s{i % 5}", None if i % 7 == 0 else i % 11)
        for i in range(start, start + count)
    ]


def _table(shark: SharkContext, name: str = "t") -> None:
    shark.create_table(name, SCHEMA, cached=True)


def _shape(shark: SharkContext, name: str = "t") -> list[tuple]:
    """(rows, bytes, is a delta) of every block, in order."""
    table = shark.table_entry(name).cached_rdd
    return [
        (block.rows, block.bytes, block.delta)
        for block in table.blocks
    ]


def _check_invariants(shark: SharkContext, model: list[tuple]) -> None:
    entry = shark.table_entry("t")
    table = entry.cached_rdd
    assert entry.row_count == len(model)
    if table is None:
        assert not model and not entry.partition_stats
        return
    assert table.num_partitions == len(entry.partition_stats) == len(
        entry.partition_bytes
    )
    assert entry.size_bytes == sum(entry.partition_bytes)
    assert sum(block.rows for block in table.blocks) == len(model)
    # Depth one: every block is read through its own cached load.
    assert all(block.rdd.is_cached for block in table.blocks)
    assert [dep.rdd for dep in table.dependencies] == [
        block.rdd for block in table.blocks
    ]
    assert shark.sql("SELECT * FROM t").rows == model
    # Every block — merged ones included — holds the bytes and statistics
    # a load of the rows it holds now would write.
    stored = shark.engine.run_job(table, lambda blks: blks[0])
    offset = 0
    for block, stats, part in zip(
        table.blocks, entry.partition_stats, stored
    ):
        held = model[offset:offset + block.rows]
        offset += block.rows
        fresh = ColumnarPartition.from_rows(SCHEMA, held)
        assert _fingerprint(part) == _fingerprint(fresh)
        assert repr(stats) == repr(part.stats) == repr(fresh.stats)
        for name in SCHEMA.names:
            assert stats.column(name) == fresh.stats.column(name)


_OPS = st.one_of(
    st.tuples(st.just("bulk"), st.integers(2, 40), st.integers(2, 4)),
    st.tuples(st.just("trickle"), st.integers(0, 12), st.just(1)),
    st.tuples(st.just("insert"), st.integers(1, 4), st.none()),
    st.tuples(st.just("drop"), st.just(0), st.none()),
)


class TestAgainstAListOfRows:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(_OPS, min_size=1, max_size=14),
        probe=st.integers(0, 60),
    )
    def test_any_sequence_of_loads(self, ops, probe):
        shark = SharkContext(num_workers=2)
        _table(shark)
        model: list[tuple] = []
        loaded = 0
        transposed: list[int] = []  # rows of each ColumnBatch.from_rows
        from_rows = ColumnBatch.from_rows.__func__

        def counted(cls, rows, width):
            transposed.append(len(rows))
            return from_rows(cls, rows, width)

        for op, count, parts in ops:
            if op == "drop":
                shark.sql("DROP TABLE t")
                assert stored_blocks(shark) == []
                _table(shark)
                model = []
            elif op == "insert":
                rows = _rows(loaded, count)
                values = ", ".join(
                    "({}, '{}', {})".format(
                        k, s, "NULL" if v is None else v
                    )
                    for k, s, v in rows
                )
                shark.sql(f"INSERT INTO t VALUES {values}")
                model += rows
            else:
                rows = _rows(loaded, count)
                absorbed = shark.metrics.value(
                    "memstore.append.blocks_absorbed"
                )
                transposed.clear()
                with mock.patch.object(
                    ColumnBatch, "from_rows", classmethod(counted)
                ):
                    shark.load_rows("t", rows, num_partitions=parts)
                # A merge transposes the new rows only: the absorbed
                # blocks come in as columns.
                if shark.metrics.value(
                    "memstore.append.blocks_absorbed"
                ) > absorbed:
                    assert transposed == [count]
                assert sum(transposed) == count
                model += rows
            loaded += count
            _check_invariants(shark, model)
        # Map pruning over whatever blocks the sequence left — merged
        # ones included — prunes exactly what their statistics allow.
        entry = shark.table_entry("t")
        text = f"SELECT k, s, v FROM t WHERE k >= {probe}"
        want = [row for row in model if row[0] >= probe]
        result = shark.sql(text)
        assert result.rows == want
        if entry.cached_rdd is not None and model:
            may_match = sum(
                stats.column("k").may_overlap(low=probe)
                for stats in entry.partition_stats
            )
            assert result.report.scanned_partitions == may_match


class TestSizing:
    def test_a_small_insert_into_a_big_table_is_one_block(self):
        shark = SharkContext(num_workers=4)
        _table(shark)
        shark.load_rows("t", _rows(0, 400), num_partitions=4)
        shark.sql(
            "INSERT INTO t VALUES (400, 'a', 1), (401, 'b', 2), (402, 'c', 3)"
        )
        assert [(r, d) for r, _, d in _shape(shark)][4:] == [(3, True)]
        # ... and the next one no smaller merges with it, like any
        # trickle; a smaller one waits behind it.
        shark.sql(
            "INSERT INTO t VALUES (403, 'd', 4), (404, 'e', 5), (405, 'f', 6)"
        )
        shark.sql("INSERT INTO t VALUES (406, 'g', 7)")
        assert [rows for rows, _, _ in _shape(shark)] == [100] * 4 + [6, 1]
        assert shark.sql("SELECT k FROM t WHERE k >= 400").rows == [
            (k,) for k in range(400, 407)
        ]

    def test_an_insert_select_appends_its_plans_blocks_but_no_empty_one(
        self,
    ):
        shark = SharkContext(num_workers=4)
        _table(shark, "src")
        shark.load_rows("src", _rows(0, 400), num_partitions=4)
        _table(shark)
        shark.load_rows("t", _rows(0, 10), num_partitions=1)
        stored = stored_blocks(shark)
        shark.enable_tracing()
        result = shark.sql(
            "INSERT INTO t SELECT * FROM src WHERE k < 100 OR k > 350"
        )
        assert result.scalar() == "inserted 149 rows into t"
        # The plan's four partitions hold (100, 0, 0, 49) rows: two blocks,
        # neither a delta, and no stored block of the empty two.
        assert [(r, d) for r, _, d in _shape(shark)] == [
            (10, True), (100, False), (49, False)
        ]
        table = shark.table_entry("t").cached_rdd
        assert stored_blocks(shark) == sorted(
            stored + [f"rdd_{b.rdd.id}_{b.split}" for b in table.blocks[1:]]
        )
        (event,) = shark.trace.events_named("table.append")
        assert event.args == {
            "table": "t",
            "rows": 149,
            "blocks_written": 2,
            "blocks_absorbed": 0,
            "rows_rewritten": 0,
        }
        # An INSERT that selects nothing writes nothing.
        shark.sql("INSERT INTO t SELECT * FROM src WHERE k < 0")
        assert len(_shape(shark)) == 3
        assert len(stored_blocks(shark)) == len(stored) + 2
        assert shark.sql("SELECT * FROM t").rows == (
            _rows(0, 10) + _rows(0, 100) + _rows(351, 49)
        )

    def test_an_unsized_load_is_cut_like_the_largest_block(self):
        shark = SharkContext(num_workers=4)
        parallelism = shark.engine.default_parallelism
        _table(shark)
        # Into an empty table, and with an explicit count: as before.
        shark.load_rows("t", _rows(0, 3))
        assert len(_shape(shark)) == min(3, parallelism)
        shark.load_rows("t", _rows(3, 6), num_partitions=3)
        assert [rows for rows, _, _ in _shape(shark)][-3:] == [2, 2, 2]
        before = len(_shape(shark))
        shark.load_rows("t", _rows(9, 5))  # ceil(5 / 2) blocks
        assert len(_shape(shark)) == before + 3
        shark.load_rows("t", _rows(14, 10_000))
        assert len(_shape(shark)) == before + 3 + parallelism

    def test_bulk_ctas_and_distribute_by_blocks_are_never_merged_into(self):
        shark = SharkContext(num_workers=4)
        _table(shark, "src")
        shark.load_rows("src", _rows(0, 8), num_partitions=1)
        shark.sql(f"CREATE TABLE one {CACHED} AS SELECT * FROM src")
        shark.sql(
            f"CREATE TABLE spread {CACHED} AS SELECT * FROM src "
            "DISTRIBUTE BY k"
        )
        one_before = _shape(shark, "one")
        assert [delta for _, _, delta in one_before] == [False]
        shark.load_rows("one", _rows(8, 100), num_partitions=1)
        assert _shape(shark, "one") == one_before + [
            (100, _shape(shark, "one")[-1][1], True)
        ]
        # Nor are the blocks of a DISTRIBUTE BY table; the append ends
        # its co-partitioning contract (block i no longer holds all of
        # bucket i), so a join on the key reads every row again.
        join = "SELECT COUNT(*) FROM spread a JOIN spread b ON a.k = b.k"
        result = shark.sql(join)
        assert [d.strategy for d in result.report.join_decisions] == [
            "copartitioned"
        ]
        assert result.scalar() == 8
        spread_before = _shape(shark, "spread")
        shark.load_rows("spread", _rows(8, 100), num_partitions=1)
        assert [(r, d) for r, _, d in _shape(shark, "spread")] == [
            (rows, False) for rows, _, _ in spread_before
        ] + [(100, True)]
        assert shark.table_entry("spread").partitioner is None
        assert shark.sql(join).scalar() == 108


class TestAmplification:
    def test_256_equal_trickles(self):
        shark = SharkContext(num_workers=4)
        shark.enable_tracing()
        _table(shark)
        shark.load_rows("t", _rows(0, 400), num_partitions=4)
        base = len(_shape(shark))
        trickles, size = 256, 8
        for i in range(trickles):
            shark.load_rows("t", _rows(400 + i * size, size), num_partitions=1)
            deltas = len(_shape(shark)) - base
            # A binary counter: one delta per set bit of the count.
            assert deltas == bin(i + 1).count("1")
        appended = trickles * size
        rewritten = shark.metrics.value("memstore.append.rows_rewritten")
        assert appended + rewritten <= (2 + math.log2(trickles)) * appended
        assert shark.metrics.value("memstore.append.blocks_absorbed") == (
            trickles - 1
        )
        assert len(_shape(shark)) <= base + 9
        target = shark.session.config.target_partition_bytes
        assert max(nbytes for _, nbytes, _ in _shape(shark)) <= target
        assert shark.sql("SELECT * FROM t").rows == _rows(0, 400 + appended)
        events = shark.trace.events_named("table.append")
        assert len(events) == trickles + 1
        assert events[-1].args == {
            "table": "t",
            "rows": size,
            "blocks_written": 1,
            "blocks_absorbed": 8,
            "rows_rewritten": (trickles - 1) * size,
        }

    def test_a_merged_block_stays_within_one_tasks_bytes(self):
        target = 2048
        shark = SharkContext(
            num_workers=2,
            config=PlannerConfig(target_partition_bytes=target),
        )
        _table(shark)
        for i in range(128):
            shark.load_rows("t", _rows(i * 16, 16), num_partitions=1)
        shape = _shape(shark)
        assert max(nbytes for _, nbytes, _ in shape) <= target
        # Full blocks are sealed, deltas keep merging behind them.
        assert 2 < len(shape) < 40
        assert shark.sql("SELECT * FROM t").rows == _rows(0, 128 * 16)


def _fingerprint(block) -> list:
    return [block.column_bytes(i) for i in range(len(SCHEMA))]


def _tail(shark: SharkContext):
    """(the block list, index and ColumnarPartition of its last block)."""
    table = shark.table_entry("t").cached_rdd
    last = table.num_partitions - 1
    (block,) = shark.engine.run_job(
        table, lambda blks: blks[0], partitions=[last]
    )
    return table, last, block


def _trickled(**kwargs) -> SharkContext:
    """Four bulk blocks and a tail merged out of three trickles."""
    shark = SharkContext(num_workers=4, **kwargs)
    _table(shark)
    shark.load_rows("t", _rows(0, 400), num_partitions=4)
    shark.load_rows("t", _rows(400, 40), num_partitions=1)
    shark.load_rows("t", _rows(440, 20), num_partitions=1)
    shark.load_rows("t", _rows(460, 20), num_partitions=1)
    return shark


class TestLineageOfAMergedBlock:
    QUERY = "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s"

    def test_scan_tasks_are_offered_the_worker_holding_their_block(self):
        shark = SharkContext(num_workers=4)
        _table(shark)
        shark.load_rows("t", _rows(0, 400), num_partitions=4)
        tracker = shark.engine.cache_tracker

        def check():
            table = shark.table_entry("t").cached_rdd
            for split, block in enumerate(table.blocks):
                holder = tracker.location(block.rdd.id, block.split)
                assert holder is not None
                assert table.preferred_workers(split) == [holder]
            # ... and the scheduler took the offer.
            shark.enable_tracing()
            # (A global aggregate: its scan tasks are the job's map
            # tasks, whose partials the driver fetches and merges.)
            shark.sql("SELECT COUNT(*) FROM t WHERE v >= 0")
            lanes = sorted(
                span.lane for span in shark.trace.spans
                if span.name.startswith("map task")
            )
            shark.disable_tracing()
            assert lanes == sorted(
                tracker.location(block.rdd.id, block.split)
                for block in table.blocks
            )

        check()
        shark.load_rows("t", _rows(400, 20), num_partitions=1)
        check()  # after an append
        shark.load_rows("t", _rows(420, 20), num_partitions=1)
        assert [rows for rows, _, _ in _shape(shark)] == [100] * 4 + [40]
        check()  # after a merge

    def test_killing_the_tails_worker_recomputes_it_byte_identically(self):
        reference = _trickled()
        want = sorted(reference.sql(self.QUERY).rows)
        shark = _trickled(fault_injector=FaultInjector(seed=3))
        assert [rows for rows, _, _ in _shape(shark)] == [100] * 4 + [80]
        table, last, block = _tail(shark)
        before = _fingerprint(block)
        holder = table.preferred_workers(last)[0]
        shark.engine.inject_failure(worker_id=holder, after_tasks=2)
        assert sorted(shark.sql(self.QUERY).rows) == want
        assert not shark.engine.cluster.worker(holder).alive
        table, last, block = _tail(shark)
        assert table.preferred_workers(last) not in ([], [holder])
        assert _fingerprint(block) == before
        assert block.to_rows() == _rows(400, 80)

    def test_a_plan_built_before_an_append_reads_its_snapshot(self):
        shark = _trickled()
        plan = shark.sql2rdd("SELECT * FROM t")
        stored = stored_blocks(shark)
        shark.load_rows("t", _rows(480, 90), num_partitions=1)
        # The 80-row tail went into the new block and left the store...
        assert [rows for rows, _, _ in _shape(shark)] == [100] * 4 + [170]
        assert len(stored_blocks(shark)) == len(stored)
        assert stored_blocks(shark) != stored
        # ... and the old plan recomputes it from its lineage.
        assert plan.collect() == _rows(0, 480)
        assert shark.sql("SELECT * FROM t").rows == _rows(0, 570)

    def test_an_evicted_tail_still_merges(self):
        uncapped = _trickled()
        # Room for one block a worker.  Where a scan task runs is the
        # scheduler's choice, so before every append another block is
        # cached on the tail's worker: over its cap, the store pushes
        # out its least recently used block, the tail.
        shark = _trickled(memory_per_worker_bytes=200)
        for start in range(480, 560, 20):
            assert shark.sql("SELECT COUNT(*) FROM t WHERE k < 400").rows == [
                (400,)
            ]
            tail = shark.table_entry("t").cached_rdd.blocks[-1]
            holder = shark.engine.cache_tracker.location(
                tail.rdd.id, tail.split
            )
            if holder is not None:
                shark.engine.cluster.put_block(
                    holder, f"other_{start}", b"", size_bytes=200
                )
            assert f"rdd_{tail.rdd.id}_{tail.split}" not in stored_blocks(shark)
            uncapped.load_rows("t", _rows(start, 20), num_partitions=1)
            shark.load_rows("t", _rows(start, 20), num_partitions=1)
        assert shark.metrics.value("blocks.evicted") > 0
        assert [rows for rows, _, _ in _shape(shark)] == [100] * 4 + [160]
        assert _shape(shark) == _shape(uncapped)
        assert shark.sql("SELECT * FROM t").rows == _rows(0, 560)
        assert sorted(shark.sql(self.QUERY).rows) == sorted(
            uncapped.sql(self.QUERY).rows
        )


class TestMasterRecovery:
    def test_replay_rebuilds_the_same_block_list(self):
        store = DistributedFileStore()
        original = SharkContext(
            num_workers=2, store=store, enable_master_recovery=True
        )
        original.sql(f"CREATE TABLE t (k INT, s STRING, v INT) {CACHED}")
        original.load_rows("t", _rows(0, 60), num_partitions=3)
        for start in range(60, 100, 8):
            original.load_rows("t", _rows(start, 8), num_partitions=1)
        original.sql("INSERT INTO t VALUES (100, 'x', 1), (101, 'y', NULL)")
        original.load_rows("t", _rows(102, 50))
        original.sql(f"CREATE TABLE copy {CACHED} AS SELECT * FROM t")
        original.load_rows("copy", _rows(152, 5))
        recovered = SharkContext.recover(store, num_workers=2)
        for name in ("t", "copy"):
            assert _shape(recovered, name) == _shape(original, name)
            assert (
                recovered.sql(f"SELECT * FROM {name}").rows
                == original.sql(f"SELECT * FROM {name}").rows
            )
