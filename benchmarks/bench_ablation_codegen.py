"""Ablation A4: compiled expression evaluators vs tree interpretation
(Section 5).

"By profiling Shark, we discovered that for certain queries, when data is
served out of the memory store the majority of the CPU cycles are wasted
in interpreting these evaluators."  The paper lists bytecode compilation
as in-progress work; in this repo the compiled form is the vector kernels
of ``repro.sql.codegen`` and the interpreter is ``BoundExpr.eval``, and —
unlike the cluster figures — the effect is *directly measurable locally*:
same predicate, same data, kernel vs ``eval``.  (The engine runs the
kernels only; ``eval`` is their scalar fallback and reference.)
"""

import time

import pytest

from repro.columnar import ColumnarPartition
from repro.columnar.batch import ColumnBatch
from repro.sql.analyzer import Analyzer, Scope
from repro.sql.catalog import Catalog
from repro.sql.codegen import compile_vector_predicate
from repro.sql.functions import FunctionRegistry
from repro.sql.parser import parse_expression
from repro.workloads import tpch

LOCAL_ROWS = 20000

PREDICATE = (
    "L_SHIPMODE IN ('AIR', 'SHIP') AND L_QUANTITY BETWEEN 5 AND 45 "
    "AND L_RETURNFLAG <> 'A'"
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
