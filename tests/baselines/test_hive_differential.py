"""Hive baseline: differential correctness vs Shark + job-shape checks.

Shark and the Hive baseline share the front end but differ in execution;
identical rows are the strongest correctness signal both ways (the paper
leans on exactly this property — Shark answers Hive queries unchanged).
"""

import random

import pytest

from repro import SharkContext
from repro.baselines import HiveExecutor
from repro.datatypes import DOUBLE, INT, STRING, Schema


@pytest.fixture(scope="module")
def systems():
    shark = SharkContext(num_workers=4)
    rng = random.Random(13)
    shark.create_table(
        "sales",
        Schema.of(
            ("sale_id", INT), ("region", STRING),
            ("product", STRING), ("amount", DOUBLE),
        ),
        cached=True,
    )
    sales = [
        (
            i,
            rng.choice(["n", "s", "e", "w"]),
            f"p{rng.randint(0, 15)}",
            round(rng.uniform(1, 100), 2),
        )
        for i in range(500)
    ]
    shark.load_rows("sales", sales)
    shark.create_table(
        "products", Schema.of(("product", STRING), ("cat", STRING))
    )
    shark.load_rows(
        "products", [(f"p{i}", ["a", "b"][i % 2]) for i in range(12)]
    )

    hive = HiveExecutor(shark.session)
    return shark, hive


DIFFERENTIAL_QUERIES = [
    "SELECT sale_id, amount FROM sales WHERE amount > 50",
    "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region",
    "SELECT COUNT(*) FROM sales",
    "SELECT product, AVG(amount) FROM sales WHERE region <> 'n' "
    "GROUP BY product HAVING COUNT(*) > 5",
    "SELECT region, COUNT(DISTINCT product) FROM sales GROUP BY region",
    "SELECT s.region, p.cat, SUM(s.amount) FROM sales s "
    "JOIN products p ON s.product = p.product GROUP BY s.region, p.cat",
    "SELECT sale_id FROM sales ORDER BY amount DESC LIMIT 12",
    "SELECT DISTINCT region FROM sales",
    "SELECT region FROM sales WHERE amount > 90 "
    "UNION ALL SELECT region FROM sales WHERE amount < 10",
    "SELECT cat, COUNT(*) FROM sales s LEFT JOIN products p "
    "ON s.product = p.product GROUP BY cat",
]


def _normalize(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                round(v, 6) if isinstance(v, float) else v for v in row
            )
        )
    return sorted(out, key=repr)


class TestDifferential:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_rows_match_shark(self, systems, query):
        shark, hive = systems
        shark_rows = shark.sql(query).rows
        hive_rows = hive.execute(query).rows
        if "LIMIT" in query and "ORDER BY" not in query:
            assert len(shark_rows) == len(hive_rows)
        else:
            assert _normalize(shark_rows) == _normalize(hive_rows), query


class TestJobShapes:
    def test_selection_is_single_map_only_job(self, systems):
        __, hive = systems
        run = hive.execute("SELECT sale_id FROM sales WHERE amount > 50")
        assert len(run.jobs) == 1
        assert run.jobs[0].reduce_tasks == 0

    def test_aggregation_is_one_mapreduce_job(self, systems):
        __, hive = systems
        run = hive.execute(
            "SELECT region, SUM(amount) FROM sales GROUP BY region"
        )
        assert len(run.jobs) == 1
        assert run.jobs[0].reduce_tasks > 0

    def test_global_aggregate_single_reducer(self, systems):
        __, hive = systems
        run = hive.execute("SELECT COUNT(*) FROM sales")
        assert run.jobs[0].reduce_tasks == 1

    def test_join_then_aggregate_is_two_jobs_with_materialization(
        self, systems
    ):
        __, hive = systems
        run = hive.execute(
            "SELECT p.cat, SUM(s.amount) FROM sales s "
            "JOIN products p ON s.product = p.product GROUP BY p.cat"
        )
        assert run.num_jobs == 2
        assert run.jobs[0].materialized_output
        assert run.materialized_bytes > 0

    def test_order_by_runs_single_reducer(self, systems):
        __, hive = systems
        run = hive.execute(
            "SELECT sale_id FROM sales ORDER BY amount LIMIT 5"
        )
        sort_jobs = [j for j in run.jobs if j.name == "order_by"]
        assert sort_jobs and sort_jobs[0].reduce_tasks == 1

    def test_sorted_shuffle_recorded(self, systems):
        __, hive = systems
        run = hive.execute(
            "SELECT region, COUNT(*) FROM sales GROUP BY region"
        )
        assert run.jobs[0].shuffle_bytes > 0

    def test_select_statement_only(self, systems):
        from repro.errors import UnsupportedFeatureError

        __, hive = systems
        with pytest.raises(UnsupportedFeatureError):
            hive.execute("DROP TABLE sales")
