"""The oracle parity harness: every workload query equals sqlite.

Every TPC-H and Pavlo workload query runs across compression on/off
(``shark.compress`` table property) and 1 vs 4 partitions and must equal
stdlib ``sqlite3`` over the same rows (``tests/oracle.py``: multisets
with a 1e-9 relative float tolerance, lists where the query orders its
rows) — a reference that shares no code with the kernels.  Storage must
also be invisible: each configuration's rows are ``repr``-identical
(exact types, ``-0.0`` vs ``0.0`` and any accumulation-order drift
fail loudly) to a clean default-config run over the same partitioning.

A chaos section repeats the comparison under the fault injector (task
retries plus speculative stragglers): recovery re-execution must not
perturb results either.
"""

import pytest

from repro import SharkContext
from repro.datatypes import BOOLEAN
from repro.faults.injector import FaultInjector
from repro.workloads import pavlo, tpch

from tests.oracle import assert_rows_match, sqlite_rows

TPCH_Q1 = """
    SELECT L_RETURNFLAG, L_LINESTATUS,
           SUM(L_QUANTITY) AS sum_qty,
           SUM(L_EXTENDEDPRICE) AS sum_base,
           SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS sum_disc,
           AVG(L_QUANTITY) AS avg_qty,
           COUNT(*) AS count_order
    FROM lineitem
    WHERE L_SHIPDATE <= DATE '1998-09-02'
    GROUP BY L_RETURNFLAG, L_LINESTATUS
    ORDER BY L_RETURNFLAG, L_LINESTATUS
"""

TPCH_Q3 = """
    SELECT o.O_ORDERKEY,
           SUM(l.L_EXTENDEDPRICE * (1 - l.L_DISCOUNT)) AS revenue,
           o.O_ORDERDATE
    FROM customer c
    JOIN orders o ON c.C_CUSTKEY = o.O_CUSTKEY
    JOIN lineitem l ON l.L_ORDERKEY = o.O_ORDERKEY
    WHERE c.C_MKTSEGMENT = 'BUILDING'
      AND o.O_ORDERDATE < DATE '1995-03-15'
    GROUP BY o.O_ORDERKEY, o.O_ORDERDATE
    ORDER BY revenue DESC
    LIMIT 10
"""

TPCH_Q6 = """
    SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS revenue
    FROM lineitem
    WHERE L_SHIPDATE >= DATE '1994-01-01'
      AND L_SHIPDATE < DATE '1995-01-01'
      AND L_DISCOUNT BETWEEN 0.01 AND 0.06
      AND L_QUANTITY < 24
"""

QUERIES = {
    "tpch_q1": TPCH_Q1,
    "tpch_q3": TPCH_Q3,
    "tpch_q6": TPCH_Q6,
    "tpch_agg_1": tpch.AGGREGATION_QUERIES[1],
    "tpch_agg_7": tpch.AGGREGATION_QUERIES[7],
    "tpch_agg_2500": tpch.AGGREGATION_QUERIES[2500],
    "tpch_agg_max": tpch.AGGREGATION_QUERIES["max"],
    "tpch_pde_join": tpch.PDE_JOIN_QUERY,
    "pavlo_selection": pavlo.SELECTION_QUERY.format(cutoff=50),
    "pavlo_agg_full": pavlo.AGGREGATION_FULL_QUERY,
    "pavlo_agg_substr": pavlo.AGGREGATION_SUBSTR_QUERY,
    "pavlo_join": pavlo.JOIN_QUERY,
}


def _datasets():
    return {
        "lineitem": tpch.generate_lineitem(3000),
        "orders": tpch.generate_orders(800),
        "customer": tpch.generate_customer(100),
        "supplier": tpch.generate_supplier(60),
        "rankings": pavlo.generate_rankings(600),
        "uservisits": pavlo.generate_uservisits(
            1500, num_pages=600, num_ips=120
        ),
    }


def _build(compress: bool, partitions: int, **context_kwargs):
    shark = SharkContext(num_workers=4, cores_per_worker=2, **context_kwargs)
    properties = None if compress else {"shark.compress": "false"}
    for name, data in _datasets().items():
        shark.create_table(
            name, data.schema, cached=True, properties=properties
        )
        shark.load_rows(name, data.rows, num_partitions=partitions)
    shark.register_udf("SOME_UDF", _some_udf, return_type=BOOLEAN)
    return shark


def _some_udf(addr):
    return addr.endswith("7")


def _canonical(rows):
    return sorted((tuple(row) for row in rows), key=repr)


def assert_byte_identical(rows, reference):
    assert len(rows) == len(reference)
    for got, want in zip(_canonical(rows), _canonical(reference)):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert type(x) is type(y), (x, y)
            # repr equality: catches -0.0 vs 0.0 and any float drift
            # that value equality would forgive.
            assert repr(x) == repr(y), (x, y)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param((True, 1), id="compressed-1part"),
        pytest.param((True, 4), id="compressed-4part"),
        pytest.param((False, 1), id="uncompressed-1part"),
        pytest.param((False, 4), id="uncompressed-4part"),
    ],
)
def warehouse(request):
    compress, partitions = request.param
    return _build(compress, partitions), partitions


@pytest.fixture(scope="module")
def oracle_rows():
    """What sqlite answers for each query over the same rows."""
    tables = {
        table: (data.schema.names, data.rows)
        for table, data in _datasets().items()
    }
    return {
        name: sqlite_rows(query, tables, {"SOME_UDF": _some_udf})
        for name, query in QUERIES.items()
    }


@pytest.fixture(scope="module")
def clean_rows():
    """A default-config (compressed) run per partitioning."""
    contexts = {partitions: _build(True, partitions) for partitions in (1, 4)}
    return {
        (partitions, name): shark.sql(QUERIES[name]).rows
        for partitions, shark in contexts.items()
        for name in QUERIES
    }


class TestVectorizedParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_query_parity(self, warehouse, oracle_rows, clean_rows, name):
        shark, partitions = warehouse
        query = QUERIES[name]
        rows = shark.sql(query).rows
        assert_rows_match(
            rows, oracle_rows[name], ordered="ORDER BY" in query, context=name
        )
        assert_byte_identical(rows, clean_rows[partitions, name])

    def test_vectorize_on_reports_vectorized_scan(self, warehouse):
        shark, __ = warehouse
        shark.sql(QUERIES["tpch_agg_7"])
        modes = dict(shark.last_report.operator_modes)
        assert any(
            op.startswith("scan(") and mode.startswith("vectorized")
            for op, mode in modes.items()
        )


class TestChaosParity:
    """Under fault injection == the clean default-config run.

    Task retries and speculative straggler backups re-execute batch
    tasks from lineage; the recovered results must still match the clean
    run bit for bit.
    """

    CHAOS_QUERIES = ["tpch_q1", "tpch_agg_max", "pavlo_agg_full"]

    @pytest.mark.parametrize("name", CHAOS_QUERIES)
    def test_chaos_batch_matches_clean_rows(self, clean_rows, name):
        injector = FaultInjector(
            seed=13,
            transient_failure_rate=0.25,
            stragglers_per_stage=1,
        )
        chaotic = _build(True, 4, fault_injector=injector)
        got = chaotic.sql(QUERIES[name]).rows
        assert_byte_identical(got, clean_rows[4, name])
