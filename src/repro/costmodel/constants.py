"""Hardware and engine constants, taken from the paper where it states them.

Sources inside the paper (Xin et al., SIGMOD 2013):

* Section 2.1: Hadoop incurs 5-10 s to launch each task; Spark launches
  tasks with ~5 ms overhead and manages 100 ms tasks comfortably.
* Section 3.2: commodity CPUs deserialize at ~200 MB/s per core; JVM object
  overhead is 12-16 bytes per object; 270 MB of TPC-H lineitem becomes
  ~971 MB as JVM objects vs 289 MB serialized.
* Section 2.2: DRAM is over 10x faster than a 10-Gigabit network.
* Section 6.1: m2.4xlarge nodes - 8 virtual cores, 68 GB memory,
  1.6 TB local storage.
* Section 7.1: Hadoop heartbeats every 3 seconds to assign tasks.

Where the paper is silent (disk throughput, DRAM scan rate) we use standard
2012-era commodity numbers and document them here; the benchmark harness
reproduces *shapes*, not absolute EC2 latencies, so these only need to be in
the right ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class HardwareProfile:
    """Per-node hardware characteristics of the simulated cluster."""

    cores_per_node: int = 8
    memory_per_node_mb: float = 68 * 1024.0
    #: Sequential local-disk read throughput per node (MB/s).
    disk_read_mb_s: float = 110.0
    #: Sequential local-disk write throughput per node (MB/s).
    disk_write_mb_s: float = 90.0
    #: Effective per-node network throughput (MB/s); ~1 GbE on m2.4xlarge.
    network_mb_s: float = 110.0
    #: DRAM scan rate per core (MB/s); "DRAM ... over 10x faster than even a
    #: 10-Gigabit network" (Section 2.2).
    memory_scan_mb_s: float = 6400.0
    #: Row deserialization rate per core (MB/s); Section 3.2.
    deserialization_mb_s: float = 200.0

    @property
    def memory_per_core_mb(self) -> float:
        return self.memory_per_node_mb / self.cores_per_node


DEFAULT_HARDWARE = HardwareProfile()


@dataclass(frozen=True)
class EngineProfile:
    """Execution-engine characteristics that the cost model charges for.

    One profile per engine the paper compares: Shark serving from its
    columnar memstore, Shark reading from HDFS, Hive/Hadoop, plain Hadoop
    MapReduce jobs over text or binary records, and the MPP-database model.
    """

    name: str
    #: Fixed cost to launch one task (seconds).
    task_launch_overhead_s: float
    #: Extra scheduling delay per wave of tasks (Hadoop's 3 s heartbeat).
    scheduling_wave_delay_s: float
    #: Whether intermediate stage output is written to a replicated file
    #: system between stages (Hadoop multi-job queries).
    materialize_between_stages: bool
    #: Whether map output is sorted before the shuffle (Hadoop) rather than
    #: hashed (Spark).
    sort_based_shuffle: bool
    #: Whether map outputs stay in memory (Shark's memory-based shuffle) or
    #: are written to local disk first.
    memory_shuffle: bool
    #: Whether scans are served from the columnar memstore (no
    #: deserialization) or must deserialize rows at deserialization_mb_s.
    columnar_scan: bool
    #: CPU cost per record for row-at-a-time operator evaluation
    #: (microseconds).  Shark's columnar operators batch per block; Hive
    #: interprets an expression tree per row (Section 5).
    cpu_per_record_us: float
    #: HDFS replication factor used when materializing between stages.
    hdfs_replication: int = 3
    #: The paper-scale model's stragglers: a seeded fraction of tasks run
    #: slower (JVM GC pauses, network hiccups; Section 7.1).
    straggler_fraction: float = 0.05
    straggler_slowdown: float = 3.0
    #: Whether the engine can recover mid-query (lineage / task re-execution)
    #: or must restart the whole query on a worker failure.
    fine_grained_recovery: bool = True


#: Shark serving data out of the columnar memory store.
SHARK_MEM = EngineProfile(
    name="shark",
    task_launch_overhead_s=0.005,
    scheduling_wave_delay_s=0.0,
    materialize_between_stages=False,
    sort_based_shuffle=False,
    memory_shuffle=True,
    columnar_scan=True,
    cpu_per_record_us=0.10,
)

#: Shark with no statistical straggler: what executed work is priced on.
SHARK_NO_STRAGGLER = replace(SHARK_MEM, straggler_fraction=0.0)

#: Shark reading input from HDFS (first touch; no memstore cache).
SHARK_DISK = replace(SHARK_MEM, name="shark-disk", columnar_scan=False)

#: Hive compiling to Hadoop MapReduce jobs.
HIVE = EngineProfile(
    name="hive",
    task_launch_overhead_s=7.5,
    scheduling_wave_delay_s=3.0,
    materialize_between_stages=True,
    sort_based_shuffle=True,
    memory_shuffle=False,
    columnar_scan=False,
    cpu_per_record_us=1.0,
    fine_grained_recovery=True,
)

#: Hand-written Hadoop MapReduce over text records (ML baselines, Fig 11/12).
HADOOP_TEXT = replace(HIVE, name="hadoop-text", cpu_per_record_us=1.6)

#: Hadoop MapReduce over a compact binary format (Fig 11/12).
HADOOP_BINARY = replace(HIVE, name="hadoop-binary", cpu_per_record_us=0.8)

#: MPP analytic database model: pipelined execution, no per-task launch
#: overhead, but coarse-grained recovery (query restart on failure) and a
#: single-coordinator final aggregation step (Section 6.2.2).
MPP = EngineProfile(
    name="mpp",
    task_launch_overhead_s=0.0,
    scheduling_wave_delay_s=0.0,
    materialize_between_stages=False,
    sort_based_shuffle=False,
    memory_shuffle=True,
    columnar_scan=True,
    cpu_per_record_us=0.05,
    fine_grained_recovery=False,
)

PROFILES = {
    profile.name: profile
    for profile in (SHARK_MEM, SHARK_DISK, HIVE, HADOOP_TEXT, HADOOP_BINARY, MPP)
}


def profile_by_name(name: str) -> EngineProfile:
    """Look up a built-in engine profile by its name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine profile {name!r}; known: {sorted(PROFILES)}"
        ) from None
