"""Serving integration: the multi-tenant soak with the caching stack.

The Zipfian workload repeats a handful of query templates, so once the
versioned result cache warms up a measurable fraction of completions is
served without running a single task.  Gating: every soak gate still
holds with the cache on (including byte-identity against the cache-off
baseline), the hit ratio is positive and attributed per tenant, load
shedding does not get *worse* than the cache-off run, and the memory
ledger stays balanced.
"""

from repro.errors import TenantQuotaExceeded
from repro.serving import ZipfianWorkload
from repro.serving.tenants import BEST_EFFORT
from repro.serving.workload import (
    build_server,
    build_serving_context,
    run_soak,
)

from tests.sql.test_vectorized_parity import assert_byte_identical


def _drive(queries=160, seed=29, sql_cache=False, fault_seed=None):
    shark = build_serving_context(
        fault_seed=fault_seed, sql_cache=sql_cache
    )
    server = build_server(shark, queries)
    workload = ZipfianWorkload(seed=seed, queries=queries)
    for index, request in enumerate(workload.generate()):
        try:
            server.submit(
                request.tenant,
                request.text,
                name=f"{request.tenant}-{index}",
                deadline_s=request.deadline_s,
                key=request.template,
            )
        except TenantQuotaExceeded:
            pass
    return shark, server, server.drain()


class TestServingWithCache:
    def test_every_soak_gate_holds_with_cache_on(self, tmp_path):
        # The full CI gate, cache on, under chaos: graceful shedding,
        # byte-identity vs an uncontended cache-off baseline, positive
        # hit count, ledger-zero, no leaked blocks/spans/memory.
        exit_code = run_soak(
            queries=240,
            fault_seed=17,
            sql_cache=True,
            verbose=False,
            report_out=str(tmp_path / "soak_report.txt"),
        )
        assert exit_code == 0

    def test_cache_hits_attributed_and_shedding_not_worse(self):
        __, off, off_finished = _drive(sql_cache=False)
        __, on, on_finished = _drive(sql_cache=True)
        assert on.cache_hits > 0
        attributed = sum(
            state.cache_hits for state in on.tenants.values()
        )
        assert attributed == on.cache_hits
        shed_on = [t for t in on_finished if t.state == "shed"]
        shed_off = [t for t in off_finished if t.state == "shed"]
        # Cache hits complete instantly, draining the backlog faster —
        # shedding must never get worse with the cache on.
        assert len(shed_on) <= len(shed_off)
        assert all(t.priority == BEST_EFFORT for t in shed_on)
        # The server summary surfaces the hit count only when nonzero
        # (cache-off runs keep byte-identical summaries).
        assert any("sql cache" in line for line in on.summary_lines())
        assert not any(
            "sql cache" in line for line in off.summary_lines()
        )

    def test_served_counters_read_the_tenants(self):
        shark, server, __ = _drive(sql_cache=True)
        tenants = server.tenants.values()
        metrics = shark.metrics
        assert metrics.value("server.completed") == sum(
            tenant.completed for tenant in tenants
        )
        assert metrics.value("sqlcache.served.hits") == sum(
            tenant.cache_hits for tenant in tenants
        )
        assert metrics.value("sqlcache.served.hits") > 0

    def test_admitted_results_byte_identical_per_template(self):
        __, __, finished = _drive(sql_cache=True)
        by_text: dict[str, list] = {}
        for ticket in finished:
            if ticket.state != "done":
                continue
            rows = ticket.result.rows
            first = by_text.setdefault(ticket.text, rows)
            # Coherent within the run: cached and executed completions
            # of the same template never diverge.
            assert_byte_identical(rows, first)
        assert by_text, "the soak must complete some queries"
        # ...and against a fresh uncontended cache-off warehouse.
        reference = build_serving_context()
        for text, rows in by_text.items():
            assert_byte_identical(rows, reference.sql(text).rows)
