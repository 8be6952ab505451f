"""Ablation A4: compiled expression evaluators vs tree interpretation
(Section 5).

"By profiling Shark, we discovered that for certain queries, when data is
served out of the memory store the majority of the CPU cycles are wasted
in interpreting these evaluators."  The paper lists bytecode compilation
as in-progress work; in this repo the compiled form is the vector kernels
of ``repro.sql.codegen`` and the interpreter is ``BoundExpr.eval``, and —
unlike the cluster figures — the effect is *directly measurable locally*:
same predicate, same data, kernel vs ``eval``; and end to end, the same
query with ``vectorize`` on vs off.
"""

import time

import pytest

from harness import make_shark
from repro.columnar import ColumnarPartition
from repro.columnar.batch import ColumnBatch
from repro.sql.analyzer import Analyzer, Scope
from repro.sql.catalog import Catalog
from repro.sql.codegen import compile_vector_predicate
from repro.sql.functions import FunctionRegistry
from repro.sql.parser import parse_expression
from repro.sql.planner import PlannerConfig
from repro.workloads import tpch

LOCAL_ROWS = 20000

PREDICATE = (
    "L_SHIPMODE IN ('AIR', 'SHIP') AND L_QUANTITY BETWEEN 5 AND 45 "
    "AND L_RETURNFLAG <> 'A'"
)
QUERY = (
    "SELECT L_ORDERKEY, L_EXTENDEDPRICE * (1 - L_DISCOUNT) FROM lineitem "
    f"WHERE {PREDICATE}"
)


@pytest.fixture(scope="module")
def dataset():
    return tpch.generate_lineitem(LOCAL_ROWS)


def _best_of(run, repeats=5) -> float:
    """Fastest of ``repeats`` timed calls (the noise is one-sided)."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


class TestCodegenAblation:
    def test_isolated_kernel_faster_than_eval(self, dataset, benchmark):
        """The evaluator alone, isolated from the engine: one compiled
        kernel call over a batch vs ``eval`` once per row."""
        condition = Analyzer(Catalog(), FunctionRegistry()).bind(
            parse_expression(PREDICATE),
            Scope.from_schema(dataset.schema, None),
        )
        predicate, interpreted = compile_vector_predicate(condition)
        assert interpreted == 0
        rows = dataset.rows
        block = ColumnarPartition.from_rows(dataset.schema, rows)
        ordinals = list(range(len(dataset.schema)))

        def compiled_hits() -> int:
            # A fresh batch per call: the columns are decoded inside the
            # timed region, as they are in a scan.
            batch = ColumnBatch.from_block(block, ordinals)
            return int(predicate(batch).sum())

        def interpreted_hits() -> int:
            return sum(1 for row in rows if condition.eval(row) is True)

        assert compiled_hits() == interpreted_hits() > 0
        benchmark.pedantic(compiled_hits, rounds=3, iterations=1)
        compiled_s = _best_of(compiled_hits)
        interpreted_s = _best_of(interpreted_hits)
        print(
            f"\n=== Ablation A4: expression evaluators (local wall clock)\n"
            f"    predicate over {len(rows)} rows: eval per row "
            f"{interpreted_s * 1000:.1f} ms, vector kernel "
            f"{compiled_s * 1000:.1f} ms "
            f"({interpreted_s / compiled_s:.2f}x)"
        )
        assert compiled_s < interpreted_s

    def test_end_to_end_vectorize_on_vs_off(self, dataset, benchmark):
        """The same predicate-heavy scan through the same batch
        pipeline, its links the array kernels and then ``eval`` mapped
        over each batch's rows (``vectorize`` off)."""
        compiled_shark = make_shark(
            {"lineitem": dataset}, cached=True,
            config=PlannerConfig(vectorize=True),
        )
        interpreted_shark = make_shark(
            {"lineitem": dataset}, cached=True,
            config=PlannerConfig(vectorize=False),
        )
        compiled_rows = compiled_shark.sql(QUERY).rows
        interpreted_rows = interpreted_shark.sql(QUERY).rows
        assert compiled_rows
        # Byte-identical either way, not merely equal (2 vs 2.0).
        assert sorted(map(repr, compiled_rows)) == sorted(
            map(repr, interpreted_rows)
        )

        benchmark.pedantic(
            lambda: compiled_shark.sql(QUERY), rounds=3, iterations=1
        )
        compiled_s = _best_of(lambda: compiled_shark.sql(QUERY), repeats=3)
        interpreted_s = _best_of(
            lambda: interpreted_shark.sql(QUERY), repeats=3
        )
        print(
            f"\n    end to end ({len(compiled_rows)} rows out): eval "
            f"per row {interpreted_s * 1000:.1f} ms, array kernels "
            f"{compiled_s * 1000:.1f} ms "
            f"({interpreted_s / compiled_s:.2f}x)"
        )
        assert compiled_s < interpreted_s
