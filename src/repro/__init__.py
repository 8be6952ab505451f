"""repro: a reproduction of "Shark: SQL and Rich Analytics at Scale".

Layered like the paper's system:

* :mod:`repro.engine` — Spark-like RDD engine (lineage, DAG scheduling,
  memory shuffle) over a :mod:`repro.cluster` of virtual workers.
* :mod:`repro.columnar` — the columnar memory store with compression and
  partition statistics.
* :mod:`repro.storage` — an HDFS-like replicated block store.
* :mod:`repro.sql` — the HiveQL-subset front end, optimizer, and physical
  planner over RDDs, with Partial DAG Execution (:mod:`repro.pde`).
* :mod:`repro.ml` — logistic regression and k-means on RDDs.
* :mod:`repro.core` — the Shark public API (:class:`~repro.core.SharkContext`).
* :mod:`repro.baselines` — the Hive/Hadoop comparators (MPP databases are
  a cost-model profile).
* :mod:`repro.costmodel` + :mod:`repro.workloads` — the benchmark harness's
  cluster-scale cost model and dataset generators.

Quickstart::

    from repro import SharkContext

    shark = SharkContext(num_workers=4)
    shark.sql("CREATE TABLE logs (url STRING, hits INT)")
    shark.load_rows("logs", [("a", 1), ("b", 2), ("a", 3)])
    rows = shark.sql("SELECT url, SUM(hits) FROM logs GROUP BY url")
"""

from importlib import import_module

from repro._version import __version__

#: Public name -> defining module; resolved lazily so subpackages stay
#: independently importable and import cycles are impossible.
_EXPORTS = {
    "SharkContext": "repro.core",
    "TableRDD": "repro.core",
    "Row": "repro.core",
    "EngineContext": "repro.engine",
    "RDD": "repro.engine",
    "LifecycleConfig": "repro.engine",
    "QueryHandle": "repro.engine",
    "QueryLifecycleManager": "repro.engine",
    "SqlServer": "repro.serving",
    "ServerConfig": "repro.serving",
    "TenantQuota": "repro.serving",
    "ZipfianWorkload": "repro.serving",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
