"""Comparator systems the paper evaluates Shark against.

* :mod:`repro.baselines.hive` — Hive as a *lowering policy* over the one
  engine: the same SQL front end and operators (Shark reuses Hive's
  compiler in the paper, we reuse ours), cut into chains of MapReduce
  jobs — one per blocking operator, nothing pipelined across jobs, every
  intermediate written to the file store and read back.  Rows equal
  Shark's; :class:`~repro.baselines.mapreduce.JobStats` carry Hadoop's
  cost profile.
* :mod:`repro.baselines.hadoop_ml` — the Hadoop ML jobs of Figures
  11-12: every iteration re-reads and decodes its input file.

MPP databases are a cost-model profile (:data:`repro.costmodel.MPP`),
not an executor.
"""

from repro.baselines.mapreduce import JobStats
from repro.baselines.hive import HiveExecutor, HiveQueryRun
from repro.baselines.hadoop_ml import (
    HadoopKMeans,
    HadoopLogisticRegression,
    IterationTrace,
)

__all__ = [
    "JobStats",
    "HiveExecutor",
    "HiveQueryRun",
    "HadoopKMeans",
    "HadoopLogisticRegression",
    "IterationTrace",
]
