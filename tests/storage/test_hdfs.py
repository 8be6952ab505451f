"""Distributed file store and HdfsRDD scans."""

import pytest

from repro.columnar.serde import TextSerde
from repro.datatypes import INT, STRING, Schema
from repro.errors import FileNotFoundInStoreError, StorageError
from repro.sql.physical import rows_of
from repro.storage import DistributedFileStore, HdfsRDD


class TestFileStore:
    def test_write_read_blocks(self):
        store = DistributedFileStore()
        store.write_file("/a", [b"one", b"two"])
        assert store.read_block("/a", 0) == b"one"
        assert store.read_block("/a", 1) == b"two"

    def test_duplicate_write_rejected(self):
        store = DistributedFileStore()
        store.write_file("/a", [b"x"])
        with pytest.raises(StorageError):
            store.write_file("/a", [b"y"])
        store.write_file("/a", [b"y"], overwrite=True)
        assert store.read_block("/a", 0) == b"y"

    def test_missing_file(self):
        store = DistributedFileStore()
        with pytest.raises(FileNotFoundInStoreError):
            store.read_block("/ghost", 0)

    def test_block_out_of_range(self):
        store = DistributedFileStore()
        store.write_file("/a", [b"x"])
        with pytest.raises(StorageError):
            store.read_block("/a", 5)

    def test_append_block(self):
        store = DistributedFileStore()
        store.write_file("/a", [b"one"])
        store.append_block("/a", b"two")
        assert store.file("/a").num_blocks == 2

    def test_replication_accounting(self):
        store = DistributedFileStore(default_replication=3)
        store.write_file("/a", [b"x" * 100])
        assert store.counters.bytes_written == 100
        assert store.counters.bytes_replicated == 200

    def test_read_accounting(self):
        store = DistributedFileStore()
        store.write_file("/a", [b"abcd"])
        store.read_block("/a", 0)
        assert store.counters.bytes_read == 4
        assert store.counters.blocks_read == 1

    def test_delete_and_list(self):
        store = DistributedFileStore()
        store.write_file("/b", [b"x"])
        store.write_file("/a", [b"y"])
        assert store.list_files() == ["/a", "/b"]
        store.delete("/b")
        assert not store.exists("/b")

    def test_total_bytes(self):
        store = DistributedFileStore()
        store.write_file("/a", [b"xx", b"yyy"])
        assert store.total_bytes == 5


class TestHdfsRDD:
    schema = Schema.of(("id", INT), ("name", STRING))

    def _store_with_table(self):
        store = DistributedFileStore()
        serde = TextSerde(self.schema)
        blocks = [
            serde.encode([(1, "a"), (2, "b")]),
            serde.encode([(3, "c")]),
        ]
        store.write_file("/t", blocks, format="text")
        return store

    def test_scan_rows(self, ctx):
        """A block is one record: its rows as a batch of typed columns."""
        store = self._store_with_table()
        rdd = HdfsRDD(ctx, store, "/t", self.schema)
        assert rdd.num_partitions == 2
        assert [batch.num_rows for batch in rdd.collect()] == [2, 1]
        assert rows_of(rdd).collect() == [(1, "a"), (2, "b"), (3, "c")]

    def test_metrics_mark_disk_source(self, ctx):
        store = self._store_with_table()
        rdd = HdfsRDD(ctx, store, "/t", self.schema)
        rdd.collect()
        stage = ctx.last_profile.stages[0]
        assert all(task.source == "disk" for task in stage.tasks)
        assert stage.bytes_in > 0

    def test_empty_file(self, ctx):
        store = DistributedFileStore()
        store.write_file("/empty", [], format="text")
        rdd = HdfsRDD(ctx, store, "/empty", self.schema)
        assert rows_of(rdd).collect() == []

    def test_unknown_format_rejected(self, ctx):
        store = DistributedFileStore()
        store.write_file("/t", [b""], format="parquet")
        with pytest.raises(StorageError):
            HdfsRDD(ctx, store, "/t", self.schema)
