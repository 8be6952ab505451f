"""Figure 8: join strategies chosen by optimizers (Section 6.3.2).

The query joins 1 TB-scale lineitem with the 10M-row supplier table,
where a UDF keeps ~1000 suppliers.  Three plans, as in the paper:

* **Static** (~105 s): no reliable statistics -> shuffle join of both
  large tables.
* **Adaptive** (~45 s): PDE pre-shuffles both inputs' map stages, observes
  the filtered supplier output is tiny, switches the reduce side to a map
  join — but has already paid the pre-shuffle of lineitem.
* **Static + adaptive** (~35 s, 3x over static): static analysis infers
  supplier is the likely-small side, PDE pre-shuffles *only* supplier,
  observes, broadcasts — lineitem is scanned exactly once by map tasks.
"""

import pytest

from harness import Figure, PAPER_NODES, assert_same_rows, make_shark
from repro.costmodel import ClusterSimulator, SHARK_MEM
from repro.costmodel.bridge import combined_scale, stages_from_profiles
from repro.datatypes import BOOLEAN
from repro.sql.planner import PlannerConfig
from repro.workloads import tpch

LINEITEM_ROWS = 18000
#: TPC-H keeps lineitem:supplier at 600:1 rows; a uniform-scale miniature
#: keeps one blended local->cluster factor valid for both tables.
SUPPLIER_ROWS = LINEITEM_ROWS // tpch.LINEITEM_TO_SUPPLIER_RATIO

QUERY = """
SELECT l.L_ORDERKEY, s.S_NAME
FROM lineitem l JOIN supplier s ON l.L_SUPPKEY = s.S_SUPPKEY
WHERE selective_udf(s.S_ADDRESS)
"""


def _context(enable_pde: bool):
    lineitem = tpch.generate_lineitem(
        LINEITEM_ROWS, represented=tpch.SCALE_1TB
    )
    supplier = tpch.generate_supplier(SUPPLIER_ROWS)
    config = PlannerConfig(
        enable_pde=enable_pde,
        enable_static_join_estimates=False,  # fresh data, no stats
    )
    shark = make_shark(
        {"lineitem": lineitem, "supplier": supplier},
        cached=True,
        config=config,
    )
    # ~1/10 selectivity locally; the optimizer cannot see through it.
    shark.register_udf(
        "selective_udf", lambda addr: addr.endswith("7"),
        return_type=BOOLEAN,
    )
    return shark, [lineitem, supplier]


def _cluster_seconds(shark, datasets, query) -> tuple[float, list]:
    scale = combined_scale(datasets)
    shark.engine.reset_profiles()
    rows = shark.sql(query).rows
    stages = stages_from_profiles(shark.engine.profiles, scale)
    seconds = ClusterSimulator(PAPER_NODES, SHARK_MEM).simulate(
        stages
    ).total_seconds
    return seconds, rows


class TestFigure08:
    def test_join_strategy_comparison(self, benchmark):
        # --- static: shuffle join committed at plan time.
        static_shark, datasets = _context(enable_pde=False)
        static_s, static_rows = _cluster_seconds(
            static_shark, datasets, QUERY
        )
        assert static_shark.last_report.join_decisions[0].strategy == (
            "shuffle"
        )

        # --- adaptive (PDE without static analysis): pre-shuffle BOTH
        # sides, then decide.  Emulated by pre-materializing the lineitem
        # side's map stage before running the PDE plan, exactly the extra
        # work the paper's "adaptive" bar pays.
        adaptive_shark, __ = _context(enable_pde=True)
        scale = combined_scale(datasets)
        adaptive_shark.engine.reset_profiles()
        from repro.engine.partitioner import HashPartitioner
        from repro.sql import physical

        lineitem_rows = adaptive_shark.sql2rdd(
            "SELECT * FROM lineitem"
        )
        schema = lineitem_rows.schema
        from repro.columnar.batch import ColumnBatch

        physical.pre_shuffle_side(
            adaptive_shark.engine,
            lineitem_rows.rdd.map_partitions(
                lambda part: [ColumnBatch.from_rows(part, len(schema))]
            ),
            [schema.index_of("L_SUPPKEY")],
            HashPartitioner(adaptive_shark.engine.default_parallelism),
        )
        adaptive_rows = adaptive_shark.sql(QUERY).rows
        adaptive_stages = stages_from_profiles(
            adaptive_shark.engine.profiles, scale
        )
        adaptive_s = ClusterSimulator(PAPER_NODES, SHARK_MEM).simulate(
            adaptive_stages
        ).total_seconds
        decision = adaptive_shark.last_report.join_decisions[0]
        assert decision.strategy.startswith("broadcast")

        # --- static + adaptive: prior analysis probes only supplier.
        combo_shark, __ = _context(enable_pde=True)
        benchmark.pedantic(
            lambda: combo_shark.sql(QUERY), rounds=2, iterations=1
        )
        combo_s, combo_rows = _cluster_seconds(combo_shark, datasets, QUERY)
        combo_decision = combo_shark.last_report.join_decisions[0]
        assert combo_decision.strategy.startswith("broadcast")
        assert "pre-shuffled" in " ".join(combo_shark.last_report.notes)

        assert_same_rows(static_rows, adaptive_rows, "fig8 adaptive")
        assert_same_rows(static_rows, combo_rows, "fig8 combo")

        figure = Figure(
            "Figure 8: join strategies chosen by optimizers",
            "Static ~105 s / Adaptive ~45 s / Static+Adaptive ~35 s (3x)",
        )
        figure.add("Static", static_s, "shuffle join of both tables")
        figure.add("Adaptive", adaptive_s, "pre-shuffled both, then map join")
        figure.add(
            "Static + Adaptive", combo_s,
            "pre-shuffled supplier only, map join",
        )
        figure.show()

        assert combo_s <= adaptive_s <= static_s
        assert figure.ratio("Static", "Static + Adaptive") > 2
