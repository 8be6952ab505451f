"""Partial DAG Execution (paper Section 3.1).

PDE lets Shark re-optimize a running query at shuffle boundaries: map
stages materialize their output *and* report one status each (bucket
rows and sizes, :class:`~repro.engine.shuffle.MapStatus`), and the
decisions here consume those statistics before the downstream DAG is
committed:

* :func:`~repro.pde.decisions.decide_join_strategy` — switch a planned
  shuffle join to a broadcast (map) join when the observed side is small
  (Section 3.1.1, evaluated in Figure 8);
* :func:`~repro.pde.decisions.choose_num_reducers` — pick the reduce-side
  degree of parallelism from observed map-output sizes (Section 3.1.2);
* :func:`~repro.pde.binpack.pack_partitions` — greedy bin-packing of
  fine-grained partitions into balanced coalesced reduce partitions, the
  skew-mitigation heuristic of Section 3.1.2.
"""

from repro.pde.binpack import pack_partitions
from repro.pde.decisions import (
    JoinDecision,
    choose_num_reducers,
    decide_join_strategy,
)

__all__ = [
    "pack_partitions",
    "JoinDecision",
    "choose_num_reducers",
    "decide_join_strategy",
]
