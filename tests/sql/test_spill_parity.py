"""Spill-to-disk parity: capped memory must be an invisible constraint.

Every TPC-H and Pavlo workload query runs twice — uncapped, and with
``memory_per_worker_bytes`` squeezed low enough that arbitration evicts
cached blocks and forces the external hash aggregation / external sort
to spill — and the rows must be repr-identical (the same float-drift
standard as the vectorized parity harness).  A chaos section repeats
the capped runs under the fault injector: retries shift *where* spills
fire, which must not shift results.  After every successful statement
the execution ledger balances to zero with zero clamped releases.

The acceptance class pins the ISSUE contract: Q1/Q3/Q6 capped at 1/8 of
what their operators held at the uncapped per-worker peak (operator
state, fetched and pending batches are charged at their encoded size —
DESIGN §17 — a small share of a peak that cached tables dominate)
complete correctly with ``memory.spill.events > 0``.
"""

import pytest

from repro import SharkContext
from repro.datatypes import BOOLEAN
from repro.engine.memory import EXECUTION
from repro.faults.injector import FaultInjector
from repro.workloads import pavlo, tpch

from tests.sql.test_vectorized_parity import (
    QUERIES,
    assert_byte_identical,
    sim_seconds,
)

#: Low enough to force arbitration on the larger aggregation/sort
#: queries at these data sizes (their partial batches encode to a few
#: KiB), high enough that the small ones still fit.
CAPPED_BYTES = 1024


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


def _build(cached=True, **context_kwargs):
    shark = SharkContext(num_workers=4, cores_per_worker=2, **context_kwargs)
    for name, data in _datasets().items():
        shark.create_table(name, data.schema, cached=cached)
        shark.load_rows(name, data.rows, num_partitions=4)
    shark.register_udf(
        "SOME_UDF", lambda addr: addr.endswith("7"), return_type=BOOLEAN
    )
    return shark


def _operator_peak(shark) -> int:
    """The most any worker's execution pool held at once."""
    return max(
        ledger.peak[EXECUTION]
        for worker_id, ledger in shark.engine.memory.ledgers.items()
        if worker_id >= 0
    )


def _run(shark, query):
    return shark.sql(query).rows


@pytest.fixture(scope="module")
def uncapped():
    return _build()


@pytest.fixture(scope="module")
def uncapped_rows(uncapped):
    return {name: _run(uncapped, QUERIES[name]) for name in QUERIES}


@pytest.fixture(scope="module")
def capped():
    return _build(memory_per_worker_bytes=CAPPED_BYTES)


class TestSpillParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_capped_rows_identical(self, capped, uncapped_rows, name):
        got = _run(capped, QUERIES[name])
        assert_byte_identical(got, uncapped_rows[name])
        # Spills release exactly what they charged, statement by statement.
        assert capped.engine.invariant_violations() == []

    def test_cap_actually_forced_spills(self, capped, uncapped_rows):
        # The heaviest aggregations spill their partial batches.
        accountant = capped.engine.memory

        def aggregate_spills() -> int:
            spilled = accountant.spilled_by_owner.get("batch_aggregate")
            return spilled["events"] if spilled else 0

        before = aggregate_spills()
        for name in ("tpch_q1", "pavlo_agg_full"):
            got = _run(capped, QUERIES[name])
            assert_byte_identical(got, uncapped_rows[name])
            assert capped.engine.invariant_violations() == []
        assert aggregate_spills() > before
        assert accountant.spill_events > 0
        assert accountant.spill_bytes > 0
        assert capped.metrics.value("memory.spill.events") > 0
        assert capped.metrics.value("memory.spill.bytes") > 0
        assert set(accountant.spilled_by_owner) <= {
            "batch_aggregate", "sort", "shuffle_fetch",
        }

    def test_row_mode_capped_parity(self, uncapped_rows):
        """External tables' text rows through the capped operators: the
        rows of the cached, uncapped run."""
        capped = _build(cached=False, memory_per_worker_bytes=CAPPED_BYTES)
        for name in ("tpch_q3", "tpch_agg_2500", "pavlo_join"):
            got = _run(capped, QUERIES[name])
            assert_byte_identical(got, uncapped_rows[name])
            assert capped.engine.invariant_violations() == []
        assert capped.engine.memory.spill_events > 0


class TestSpillCost:
    def test_capped_suite_costs_more_within_bound(self):
        """The spill path is charged on the simulated clock, and stays
        within 2.5x of the uncapped suite: evictions recompute cached
        blocks and spills pay their I/O, but never runaway."""
        uncapped = _build()
        capped = _build(memory_per_worker_bytes=CAPPED_BYTES)
        base = sum(sim_seconds(uncapped, text) for text in QUERIES.values())
        spilled = sum(sim_seconds(capped, text) for text in QUERIES.values())
        assert capped.engine.memory.spill_events > 0
        assert base < spilled <= 2.5 * base, (base, spilled)


class TestSpillChaosParity:
    """Chaos shifts spill points between attempts; results must not move."""

    CHAOS_QUERIES = ["tpch_q1", "tpch_agg_max", "pavlo_agg_substr"]

    @pytest.mark.parametrize("name", CHAOS_QUERIES)
    def test_chaos_capped_matches_uncapped(self, uncapped_rows, name):
        injector = FaultInjector(
            seed=13,
            transient_failure_rate=0.25,
            stragglers_per_stage=1,
        )
        chaotic = _build(
            fault_injector=injector,
            memory_per_worker_bytes=CAPPED_BYTES,
        )
        got = _run(chaotic, QUERIES[name])
        # Killed/retried attempts deregister their spill consumers and
        # drain their reservations in the scheduler's finally.
        assert_byte_identical(got, uncapped_rows[name])


class TestAcceptance:
    """ISSUE contract: Q1/Q3/Q6 at 1/8 of their operators' uncapped peak."""

    ACCEPTANCE = ["tpch_q1", "tpch_q3", "tpch_q6"]

    @pytest.mark.parametrize("name", ACCEPTANCE)
    def test_eighth_of_peak_completes_and_spills(self, name):
        baseline = _build()
        expected = _run(baseline, QUERIES[name])
        peak = _operator_peak(baseline)
        assert peak > 0
        capped = _build(memory_per_worker_bytes=max(peak // 8, 1))
        got = _run(capped, QUERIES[name])
        assert_byte_identical(got, expected)
        assert capped.metrics.value("memory.spill.events") > 0


@pytest.fixture(scope="module")
def q1_tight_cap():
    """An eighth of what Q1's operators hold uncapped: Q1 spills."""
    baseline = _build()
    _run(baseline, QUERIES["tpch_q1"])
    return _operator_peak(baseline) // 8


class TestSpillObservability:
    def test_explain_analyze_shows_spill_lines(self, q1_tight_cap):
        shark = _build(memory_per_worker_bytes=q1_tight_cap)
        text = shark.explain_analyze(QUERIES["tpch_q1"])
        assert "== memory ==" in text
        assert "spills:" in text
        assert "spill " in text  # per-owner attribution line

    def test_event_log_and_history_carry_spills(self, tmp_path, q1_tight_cap):
        path = tmp_path / "events.jsonl"
        shark = _build(memory_per_worker_bytes=q1_tight_cap)
        shark.enable_event_log(path, source="test", seed=1)
        _run(shark, QUERIES["tpch_q1"])
        shark.close_event_log()
        from repro.obs.history import HistoryStore

        store = HistoryStore.load(path)
        spills = store.memory_spills()
        assert spills and all(row["bytes"] > 0 for row in spills)
        report = store.memory_report()
        assert "spill report" in report
        # Rebuilt profiles carry the per-task spill volumes (schema v3).
        record = store.queries[0]
        rebuilt = record.profiles
        assert sum(
            task.spill_bytes_written
            for profile in rebuilt
            for stage in profile.stages
            for task in stage.tasks
        ) > 0

    def test_profile_describe_mentions_spills(self, q1_tight_cap):
        shark = _build(memory_per_worker_bytes=q1_tight_cap)
        _run(shark, QUERIES["tpch_q1"])
        profiles = shark.engine.profiles
        assert sum(profile.memory_spill_events for profile in profiles) > 0
        assert sum(profile.memory_spill_bytes for profile in profiles) > 0
