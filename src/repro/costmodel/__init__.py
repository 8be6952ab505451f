"""Cost model: converts executed task metrics into cluster-scale seconds.

The repro engine really executes every query on small, local data.  To
reproduce the paper's cluster-scale numbers (100 nodes, terabytes), each
executed task reports a cost vector (records and bytes in/out, shuffle
volume, data source), and this package converts those vectors into simulated
wall-clock seconds using hardware and engine constants taken from the paper
itself (Section 5, 6.1 and 7.1).

The two key entry points are:

* :class:`~repro.costmodel.constants.EngineProfile` /
  :class:`~repro.costmodel.constants.HardwareProfile` — the constants.
* :class:`~repro.costmodel.simulator.ClusterSimulator` — list-scheduling
  makespan simulation of a query's stages over virtual nodes and cores.
"""

from repro.costmodel.constants import (
    EngineProfile,
    HardwareProfile,
    DEFAULT_HARDWARE,
    SHARK_MEM,
    SHARK_DISK,
    HIVE,
    HADOOP_TEXT,
    HADOOP_BINARY,
    MPP,
)
from repro.costmodel.simulator import ClusterSimulator, StageCost, QueryCost
from repro.costmodel.models import TaskCostVector, estimate_task_seconds

__all__ = [
    "EngineProfile",
    "HardwareProfile",
    "DEFAULT_HARDWARE",
    "SHARK_MEM",
    "SHARK_DISK",
    "HIVE",
    "HADOOP_TEXT",
    "HADOOP_BINARY",
    "MPP",
    "ClusterSimulator",
    "StageCost",
    "QueryCost",
    "TaskCostVector",
    "estimate_task_seconds",
]
