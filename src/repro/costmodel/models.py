"""Per-task cost vectors and the task-duration model.

A :class:`TaskCostVector` summarizes what one task did: how many records and
bytes it consumed, produced, shuffled, and where its input lived.  The
engine's scheduler fills these in during real execution; benchmark harnesses
scale them up to cluster-scale volumes (:mod:`repro.costmodel.bridge`) and
feed them to :class:`~repro.costmodel.simulator.ClusterSimulator`.

:func:`estimate_task_seconds` is the heart of the model: it converts one
vector into seconds under a given engine and hardware profile, charging for

* input scan (DRAM columnar scan, or disk read + row deserialization),
* per-record CPU (expression evaluation; Hive interprets per row),
* map-side sort for sort-based shuffles (Hadoop),
* shuffle writes (memory vs local disk) and shuffle fetches (network),
* replicated materialization of stage output (Hadoop multi-job queries).

Only ratios between engines matter for reproducing the paper's shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.costmodel.constants import (
    MB,
    EngineProfile,
    HardwareProfile,
)

#: Cost (microseconds) per record-comparison in a map-side merge sort.
_SORT_US_PER_COMPARISON = 0.05

#: Input data sources a task can read from.
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_SHUFFLE = "shuffle"
SOURCE_GENERATED = "generated"

_VALID_SOURCES = (SOURCE_MEMORY, SOURCE_DISK, SOURCE_SHUFFLE, SOURCE_GENERATED)


@dataclass
class TaskCostVector:
    """What one task consumed and produced, in records and bytes."""

    records_in: float = 0.0
    bytes_in: float = 0.0
    records_out: float = 0.0
    bytes_out: float = 0.0
    #: Bytes written to the shuffle system (map-side tasks).
    shuffle_write_bytes: float = 0.0
    #: Bytes fetched from the shuffle system (reduce-side tasks).
    shuffle_read_bytes: float = 0.0
    #: Spilled-run bytes written to local disk under memory pressure
    #: (external hash aggregation / external sort), and read back at
    #: merge time.  Zero when the task never spilled — the common,
    #: cost-free case.
    spill_write_bytes: float = 0.0
    spill_read_bytes: float = 0.0
    #: Where the primary input lived: memory, disk, shuffle or generated.
    source: str = SOURCE_MEMORY
    #: True when the task's output is written to a replicated file system
    #: (intermediate output of one MapReduce job in a multi-job query).
    materialized_output: bool = False
    #: Extra CPU seconds charged verbatim (e.g. ML gradient math measured
    #: in flops and converted by the workload harness).
    extra_cpu_s: float = 0.0
    #: Fraction of ``records_in`` processed by vectorized batch kernels;
    #: those records pay ``vectorized_cpu_discount`` of the per-record CPU
    #: rate (amortized dispatch, no per-tuple interpretation).
    vectorized_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.source not in _VALID_SOURCES:
            raise ValueError(
                f"invalid task source {self.source!r}; expected one of "
                f"{_VALID_SOURCES}"
            )

    def scaled(self, factor: float) -> "TaskCostVector":
        """Return a copy with all volumes multiplied by ``factor``."""
        return replace(
            self,
            records_in=self.records_in * factor,
            bytes_in=self.bytes_in * factor,
            records_out=self.records_out * factor,
            bytes_out=self.bytes_out * factor,
            shuffle_write_bytes=self.shuffle_write_bytes * factor,
            shuffle_read_bytes=self.shuffle_read_bytes * factor,
            spill_write_bytes=self.spill_write_bytes * factor,
            spill_read_bytes=self.spill_read_bytes * factor,
            extra_cpu_s=self.extra_cpu_s * factor,
        )


def _input_seconds(
    vector: TaskCostVector, engine: EngineProfile, hardware: HardwareProfile
) -> float:
    """Seconds to read and decode the task's primary input."""
    if vector.bytes_in <= 0:
        return 0.0
    megabytes = vector.bytes_in / MB
    if vector.source == SOURCE_GENERATED:
        return 0.0
    if vector.source == SOURCE_MEMORY:
        if engine.columnar_scan:
            # Columnar memstore: primitive-array scan at DRAM speed.
            return megabytes / hardware.memory_scan_mb_s
        # Row objects in memory still pay per-row decoding.
        return megabytes / hardware.deserialization_mb_s
    if vector.source == SOURCE_SHUFFLE:
        # Charged separately via shuffle_read_bytes; avoid double counting.
        return 0.0
    # Disk source: the node's disk bandwidth is shared by its cores, and the
    # rows must then be deserialized.  The two phases pipeline, so the
    # slower one dominates.
    disk_mb_s_per_core = hardware.disk_read_mb_s / hardware.cores_per_node
    read_s = megabytes / disk_mb_s_per_core
    deserialize_s = megabytes / hardware.deserialization_mb_s
    return max(read_s, deserialize_s)


#: Per-record CPU multiplier for records flowing through vectorized batch
#: kernels: loop dispatch amortizes over the batch and the inner loops run
#: in native array code, an order of magnitude under tuple interpretation.
VECTORIZED_CPU_DISCOUNT = 0.1


def _cpu_seconds(vector: TaskCostVector, engine: EngineProfile) -> float:
    """Per-record operator CPU plus any extra CPU charged by the workload."""
    fraction = min(max(vector.vectorized_fraction, 0.0), 1.0)
    effective_records = vector.records_in * (
        1.0 - fraction * (1.0 - VECTORIZED_CPU_DISCOUNT)
    )
    return (
        effective_records * engine.cpu_per_record_us * 1e-6
        + vector.extra_cpu_s
    )


def _sort_seconds(vector: TaskCostVector, engine: EngineProfile) -> float:
    """Map-side sort cost for sort-based shuffles (Hadoop)."""
    if not engine.sort_based_shuffle or vector.shuffle_write_bytes <= 0:
        return 0.0
    n = max(vector.records_out, 2.0)
    comparisons = n * math.log2(n)
    return comparisons * _SORT_US_PER_COMPARISON * 1e-6


def _shuffle_write_seconds(
    vector: TaskCostVector, engine: EngineProfile, hardware: HardwareProfile
) -> float:
    if vector.shuffle_write_bytes <= 0:
        return 0.0
    megabytes = vector.shuffle_write_bytes / MB
    if engine.memory_shuffle:
        return megabytes / hardware.memory_scan_mb_s
    disk_mb_s_per_core = hardware.disk_write_mb_s / hardware.cores_per_node
    return megabytes / disk_mb_s_per_core


def _shuffle_read_seconds(
    vector: TaskCostVector, engine: EngineProfile, hardware: HardwareProfile
) -> float:
    if vector.shuffle_read_bytes <= 0:
        return 0.0
    megabytes = vector.shuffle_read_bytes / MB
    network_mb_s_per_core = hardware.network_mb_s / hardware.cores_per_node
    seconds = megabytes / network_mb_s_per_core
    # Reducer overflow: input exceeding the task's memory share forces an
    # external merge (spill + re-read at disk speed).  This is what makes
    # "too few reducers" catastrophic for Hive (Section 6.3).
    overflow_mb = megabytes - hardware.memory_per_core_mb
    if overflow_mb > 0:
        disk_mb_s_per_core = hardware.disk_write_mb_s / hardware.cores_per_node
        seconds += 2 * overflow_mb / disk_mb_s_per_core
    return seconds


def _spill_seconds(
    vector: TaskCostVector, hardware: HardwareProfile
) -> float:
    """Local-disk round trip for spilled execution state.

    External hash aggregation and external sort write sorted/serialized
    runs when arbitration asks them to shed memory, then read them back
    at merge time; both directions move at the node's disk bandwidth
    shared across its cores.  Tasks that never spill pay exactly zero.
    """
    seconds = 0.0
    if vector.spill_write_bytes > 0:
        disk_mb_s_per_core = (
            hardware.disk_write_mb_s / hardware.cores_per_node
        )
        seconds += (vector.spill_write_bytes / MB) / disk_mb_s_per_core
    if vector.spill_read_bytes > 0:
        disk_mb_s_per_core = (
            hardware.disk_read_mb_s / hardware.cores_per_node
        )
        seconds += (vector.spill_read_bytes / MB) / disk_mb_s_per_core
    return seconds


def _materialize_seconds(
    vector: TaskCostVector, engine: EngineProfile, hardware: HardwareProfile
) -> float:
    """Replicated HDFS write of intermediate output between MapReduce jobs."""
    if not (engine.materialize_between_stages and vector.materialized_output):
        return 0.0
    if vector.bytes_out <= 0:
        return 0.0
    megabytes = vector.bytes_out / MB
    disk_mb_s_per_core = hardware.disk_write_mb_s / hardware.cores_per_node
    network_mb_s_per_core = hardware.network_mb_s / hardware.cores_per_node
    local_write_s = megabytes / disk_mb_s_per_core
    # (replication - 1) remote copies cross the network.
    remote_copies = max(engine.hdfs_replication - 1, 0)
    remote_write_s = remote_copies * megabytes / network_mb_s_per_core
    return local_write_s + remote_write_s


def estimate_task_seconds(
    vector: TaskCostVector,
    engine: EngineProfile,
    hardware: HardwareProfile,
    include_launch: bool = True,
) -> float:
    """Seconds one task takes on one core, excluding queueing delays."""
    seconds = (
        _input_seconds(vector, engine, hardware)
        + _cpu_seconds(vector, engine)
        + _sort_seconds(vector, engine)
        + _shuffle_write_seconds(vector, engine, hardware)
        + _shuffle_read_seconds(vector, engine, hardware)
        + _spill_seconds(vector, hardware)
        + _materialize_seconds(vector, engine, hardware)
    )
    if include_launch:
        seconds += engine.task_launch_overhead_s
    return seconds
