"""A miniature MapReduce engine with Hadoop's cost structure.

Executes real map/combine/sort-shuffle/reduce jobs over in-process data
while accounting for everything the paper says makes Hadoop slow
(Section 7.1):

* map output is sorted and "written to disk" before the shuffle
  (``shuffle_bytes`` + a sort),
* each job's output is materialized — multi-job queries pay replicated
  "HDFS" writes between jobs (``materialized_bytes``),
* one task per input block / reduce partition, so task counts (and
  Hadoop's per-task launch overhead) are explicit.

The collected :class:`JobStats` feed :mod:`repro.costmodel` to produce
cluster-scale runtimes under the HIVE/HADOOP profiles.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.cluster.worker import approximate_size_bytes
from repro.engine.partitioner import stable_hash


def serialized_size_bytes(records: list) -> int:
    """Wire size of records the way Hadoop ships them: serialized rows
    (pickled rows *are* this baseline's Writable format), not Python
    object overhead.  Falls back to the heap estimate for unpicklable
    records.
    """
    try:
        return len(pickle.dumps(records, protocol=4))
    except Exception:
        return approximate_size_bytes(records)


@dataclass
class JobStats:
    """Observed volumes for one MapReduce job."""

    name: str
    map_tasks: int = 0
    reduce_tasks: int = 0
    input_records: int = 0
    input_bytes: int = 0
    map_output_records: int = 0
    shuffle_bytes: int = 0
    output_records: int = 0
    output_bytes: int = 0
    #: True when this job's output was written to the replicated store
    #: (an intermediate step of a multi-job query, or a final INSERT).
    materialized_output: bool = False
    #: True when a combiner pre-aggregated map output; shuffle volume then
    #: scales with map-task count, not data volume.
    used_combiner: bool = False


@dataclass
class MapReduceRun:
    """Output blocks plus stats for a chain of jobs."""

    blocks: list[list]
    jobs: list[JobStats] = field(default_factory=list)

    @property
    def rows(self) -> list:
        return [record for block in self.blocks for record in block]


Mapper = Callable[[Any], Iterable[tuple]]
Reducer = Callable[[Any, list], Iterable[Any]]
Combiner = Callable[[Any, list], Iterable[tuple]]


class MapReduceEngine:
    """Runs one job at a time; callers chain jobs and decide materialization."""

    def __init__(self, num_reducers: int = 8):
        if num_reducers <= 0:
            raise ValueError("num_reducers must be positive")
        self.num_reducers = num_reducers

    def run_job(
        self,
        input_blocks: list[list],
        mapper: Mapper,
        reducer: Optional[Reducer] = None,
        combiner: Optional[Combiner] = None,
        num_reducers: Optional[int] = None,
        name: str = "job",
        materialize_output: bool = False,
        input_block_bytes: Optional[list[int]] = None,
    ) -> MapReduceRun:
        """One MapReduce job.  ``reducer=None`` means a map-only job whose
        mapper output records pass straight through (no shuffle).

        ``input_block_bytes`` carries the true on-storage size of each
        input block (base-table scans read encoded files, not Python
        objects); when absent, a serialized estimate is used.
        """
        stats = JobStats(
            name=name,
            materialized_output=materialize_output,
            used_combiner=combiner is not None,
        )
        stats.map_tasks = len(input_blocks)

        def block_bytes(index: int, block: list) -> int:
            if input_block_bytes is not None and index < len(input_block_bytes):
                return input_block_bytes[index]
            return serialized_size_bytes(block)

        if reducer is None:
            output_blocks = []
            for index, block in enumerate(input_blocks):
                stats.input_records += len(block)
                stats.input_bytes += block_bytes(index, block)
                out = []
                for record in block:
                    out.extend(mapper(record))
                output_blocks.append(out)
            stats.map_output_records = sum(len(b) for b in output_blocks)
            stats.output_records = stats.map_output_records
            stats.output_bytes = sum(
                serialized_size_bytes(b) for b in output_blocks
            )
            return MapReduceRun(blocks=output_blocks, jobs=[stats])

        reducers = num_reducers or self.num_reducers
        stats.reduce_tasks = reducers
        buckets: list[list[tuple]] = [[] for _ in range(reducers)]

        for index, block in enumerate(input_blocks):
            stats.input_records += len(block)
            stats.input_bytes += block_bytes(index, block)
            map_output: list[tuple] = []
            for record in block:
                map_output.extend(mapper(record))
            if combiner is not None:
                map_output = _run_combiner(map_output, combiner)
            # Hadoop sorts each map task's output by key before spilling.
            map_output.sort(key=lambda pair: _sort_key(pair[0]))
            stats.map_output_records += len(map_output)
            stats.shuffle_bytes += serialized_size_bytes(map_output)
            for key, value in map_output:
                buckets[stable_hash(key) % reducers].append((key, value))

        output_blocks = []
        for bucket in buckets:
            # Reduce-side merge sort groups equal keys together.
            bucket.sort(key=lambda pair: _sort_key(pair[0]))
            out: list = []
            index = 0
            while index < len(bucket):
                key = bucket[index][0]
                values = []
                while index < len(bucket) and bucket[index][0] == key:
                    values.append(bucket[index][1])
                    index += 1
                out.extend(reducer(key, values))
            output_blocks.append(out)

        stats.output_records = sum(len(block) for block in output_blocks)
        stats.output_bytes = sum(
            serialized_size_bytes(block) for block in output_blocks
        )
        return MapReduceRun(blocks=output_blocks, jobs=[stats])


def _run_combiner(
    map_output: list[tuple], combiner: Combiner
) -> list[tuple]:
    grouped: dict[Any, list] = {}
    for key, value in map_output:
        grouped.setdefault(key, []).append(value)
    combined: list[tuple] = []
    for key, values in grouped.items():
        combined.extend(combiner(key, values))
    return combined


def _sort_key(key: Any) -> tuple:
    """A total order over heterogeneous keys (Hadoop sorts serialized
    bytes; here we order by type name then value)."""
    if key is None:
        return ("", "")
    if isinstance(key, tuple):
        return ("tuple", tuple(_sort_key(part) for part in key))
    return (type(key).__name__, key)
