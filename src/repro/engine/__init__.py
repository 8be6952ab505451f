"""A Spark-like execution engine: RDDs, lineage, DAG scheduling, shuffle.

This package is the substrate the paper builds Shark on (Section 2): an
in-memory, MapReduce-like engine whose datasets (RDDs) are immutable,
partitioned collections created only by deterministic coarse-grained
operators.  Lost partitions are *recomputed from lineage*, never replicated,
which is what gives Shark mid-query fault tolerance.

Everything executes for real, in-process, over a
:class:`~repro.cluster.VirtualCluster`: tasks are assigned to virtual
workers, cached partitions and shuffle map outputs live on specific workers,
and killing a worker forces genuine lineage-based recovery.

Entry point: :class:`~repro.engine.context.EngineContext`.
"""

from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.engine.partitioner import HashPartitioner, RangePartitioner
from repro.engine.broadcast import Broadcast
from repro.engine.accumulator import Accumulator
from repro.engine.metrics import TaskMetrics, StageProfile, QueryProfile
from repro.engine.lifecycle import (
    LifecycleConfig,
    QueryHandle,
    QueryLifecycleManager,
)

__all__ = [
    "EngineContext",
    "LifecycleConfig",
    "QueryHandle",
    "QueryLifecycleManager",
    "RDD",
    "HashPartitioner",
    "RangePartitioner",
    "Broadcast",
    "Accumulator",
    "TaskMetrics",
    "StageProfile",
    "QueryProfile",
]
