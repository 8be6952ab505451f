"""Deterministic fault injection for the execution engine.

The paper's central robustness claim (Sections 2 and 7) is that a
fine-grained-task engine tolerates mid-query failures and stragglers
without restarting queries.  This package provides the harness that
*proves* it: a seedable :class:`FaultInjector` that makes virtual workers
fail task attempts transiently or permanently, delays tasks (stragglers),
corrupts shuffle fetches, and kills a worker mid-query — all decided by
hashes of the injection site, never by wall-clock or execution order, so
two runs with the same seed inject exactly the same faults.

The injector plugs into two layers:

* :class:`~repro.engine.context.EngineContext` (``fault_injector=``) —
  the scheduler consults it per task attempt and retries, speculates,
  and blacklists accordingly;
* :class:`~repro.engine.shuffle.ShuffleManager` — corrupted fetches drop
  the map output block and surface as :class:`~repro.errors.
  FetchFailedError`, driving lineage recovery.

``examples/chaos_demo.py`` runs the benchmark queries under an injector
and checks the results are byte-identical to a fault-free run.
"""

from repro.faults.injector import FaultInjector

__all__ = ["FaultInjector"]
