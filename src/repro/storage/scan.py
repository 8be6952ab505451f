"""HdfsRDD: scan a stored file, one block per partition."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.columnar.serde import BinarySerde, TextSerde
from repro.costmodel.models import SOURCE_DISK
from repro.datatypes import Schema
from repro.engine.dependencies import ShuffleDependency
from repro.engine.rdd import RDD
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.task import TaskContext
    from repro.storage.hdfs import DistributedFileStore


class HdfsRDD(RDD):
    """Source RDD over a file in the distributed store.

    Each partition reads one block and decodes it into one record, a
    batch of typed columns; task metrics record a disk source so the cost
    model charges disk read plus per-row deserialization (the 200
    MB/s/core bottleneck of Section 3.2).
    """

    def __init__(
        self,
        ctx: "EngineContext",
        store: "DistributedFileStore",
        path: str,
        schema: Schema,
    ):
        stored = store.file(path)
        super().__init__(
            ctx,
            max(stored.num_blocks, 1),
            [],
            name=f"hdfs:{path}",
        )
        self._store = store
        self._path = path
        self.schema = schema
        serde = {"text": TextSerde, "binary": BinarySerde}.get(stored.format)
        if serde is None:
            raise StorageError(f"unknown storage format {stored.format!r}")
        self._serde = serde(schema)
        self._empty = stored.num_blocks == 0

    def compute(self, split: int, task_ctx: "TaskContext") -> list:
        if self._empty:
            # No block to read: what an empty block decodes to.
            return [self._serde.decode_batch(self._serde.encode([]))]
        payload = self._store.read_block(self._path, split)
        batch = self._serde.decode_batch(payload)
        task_ctx.metrics.source = SOURCE_DISK
        task_ctx.metrics.bytes_in += len(payload)
        task_ctx.metrics.records_in += batch.num_rows
        return [batch]


def lineage_reads(rdd: RDD) -> tuple[set[str], set[int]]:
    """What recomputing a lost partition of ``rdd`` needs to still
    exist: the paths of the stored files its lineage reads, and the ids
    of the shuffles whose map outputs it fetches."""
    paths: set[str] = set()
    shuffles: set[int] = set()
    seen: set[int] = set()
    stack = [rdd]
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if isinstance(node, HdfsRDD):
            paths.add(node._path)
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                shuffles.add(dep.shuffle_id)
            stack.append(dep.rdd)
    return paths, shuffles
