"""Multi-tenant SqlServer: quotas, priorities, shedding, isolation."""

import weakref

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.engine.lifecycle import CIRCUIT_FAILURE_THRESHOLD
from repro.errors import (
    QueryLifecycleError,
    QueryShedError,
    ReproError,
    TaskError,
    TenantQuotaExceeded,
)
from repro.serving import (
    BATCH,
    BEST_EFFORT,
    INTERACTIVE,
    ServerConfig,
    SqlServer,
    TenantQuota,
)
from tests.engine.test_lifecycle import held_by, still_reachable

AGG = (
    "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
    "FROM readings GROUP BY bucket"
)
COUNT = "SELECT COUNT(*) FROM readings"
FILTER = (
    "SELECT day, COUNT(*) AS n FROM readings WHERE value > 40 GROUP BY day"
)


def _build_shark(**kwargs) -> SharkContext:
    shark = SharkContext(num_workers=4, cores_per_worker=2, **kwargs)
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [(f"b{i % 6}", i % 15, float(i % 100)) for i in range(3000)],
        num_partitions=8,
    )
    return shark


def _build_server(shark=None, config=None) -> SqlServer:
    shark = shark if shark is not None else _build_shark()
    server = SqlServer(shark, config)
    server.register_tenant("alice", INTERACTIVE)
    server.register_tenant("bob", BATCH)
    server.register_tenant("carol", BEST_EFFORT)
    return server


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------
def test_server_runs_queries_and_matches_direct_results():
    shark = _build_shark()
    expected = sorted(shark.sql(AGG).rows)
    server = _build_server(shark)
    ticket = server.submit("alice", AGG, name="agg")
    finished = server.drain()
    assert ticket in finished
    assert ticket.state == "done"
    assert sorted(ticket.result.rows) == expected
    assert server.completed == 1
    assert ticket.latency_s >= 0.0


def test_server_registers_itself_on_the_engine_context():
    server = _build_server()
    assert server.shark.engine.serving is server
    assert server.lifecycle is server.shark.engine.lifecycle


def test_register_tenant_is_idempotent_and_validates_tier():
    server = _build_server()
    again = server.register_tenant("alice", INTERACTIVE)
    assert again is server.tenants["alice"]
    with pytest.raises(ValueError):
        server.register_tenant("mallory", "super-important")
    with pytest.raises(ReproError):
        server.submit("nobody", COUNT)


def test_weighted_fairness_finishes_interactive_first():
    server = _build_server()
    slow = server.submit("carol", AGG, name="be")
    fast = server.submit("alice", AGG, name="ia")
    finished = server.drain()
    assert slow.state == "done" and fast.state == "done"
    # Swept apart: the best-effort query still ran when "ia" ended.
    assert [t.name for t in finished] == ["ia", "be"]
    assert fast.ended_at < slow.ended_at


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------
def test_queue_quota_rejection_is_typed_with_retry_hint():
    server = _build_server()
    server.register_tenant(
        "tiny", BATCH, TenantQuota(max_concurrent=1, max_queued=1)
    )
    server.submit("tiny", COUNT)
    server.submit("tiny", COUNT)
    with pytest.raises(TenantQuotaExceeded) as excinfo:
        server.submit("tiny", COUNT)
    error = excinfo.value
    assert error.tenant == "tiny"
    assert error.resource == "queue"
    assert error.retry_after_s > 0
    assert server.tenants["tiny"].rejected == 1


def test_zero_queue_quota_names_concurrency_as_the_resource():
    server = _build_server()
    server.register_tenant(
        "slots-only", BATCH, TenantQuota(max_concurrent=1, max_queued=0)
    )
    first = server.submit("slots-only", COUNT)
    with pytest.raises(TenantQuotaExceeded) as excinfo:
        server.submit("slots-only", COUNT)
    assert excinfo.value.resource == "concurrency"
    server.drain()
    assert first.state == "done"


def test_budget_quota_rejects_until_the_window_rolls():
    server = _build_server()
    server.register_tenant(
        "metered",
        BATCH,
        TenantQuota(
            max_concurrent=2,
            max_queued=8,
            budget_seconds=1e-6,
            window_seconds=5.0,
        ),
    )
    server.submit("metered", AGG)
    server.drain()
    tenant = server.tenants["metered"]
    assert tenant.window_charged > 1e-6
    with pytest.raises(TenantQuotaExceeded) as excinfo:
        server.submit("metered", COUNT)
    error = excinfo.value
    assert error.resource == "budget"
    # The hint points at the window roll-over on the simulated clock.
    assert 0 < error.retry_after_s <= 5.0
    # Once the clock passes the window, the budget resets and the
    # tenant admits again.
    clock = server.shark.engine.tracer.clock
    clock.advance(error.retry_after_s + 1e-9)
    ticket = server.submit("metered", COUNT)
    server.drain()
    assert ticket.state == "done"


def test_client_honoring_server_retry_hint_eventually_admits():
    server = _build_server()
    server.register_tenant(
        "backoff", BATCH, TenantQuota(max_concurrent=1, max_queued=1)
    )
    server.submit("backoff", AGG)
    server.submit("backoff", AGG)
    admitted = None
    for _ in range(20):
        try:
            admitted = server.submit("backoff", COUNT, name="retried")
            break
        except TenantQuotaExceeded:
            # Honoring the hint: let the backlog drain, then retry.
            server.drain()
    assert admitted is not None
    server.drain()
    assert admitted.state == "done"


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
def test_unmeetable_deadline_is_shed_not_run():
    # One engine slot: the blocker holds it while the clock advances
    # past the doomed query's deadline, so the server sheds it from the
    # pending queue without ever launching it.
    server = _build_server(config=ServerConfig(engine_slots=1))
    blocker = server.submit("alice", AGG)
    doomed = server.submit("carol", COUNT, deadline_s=1e-9, name="doomed")
    server.drain()
    assert blocker.state == "done"
    assert doomed.state == "shed"
    assert doomed.shed_reason == "deadline-unmeetable"
    assert isinstance(doomed.error, QueryShedError)
    # Shed before launch: the engine never saw it.
    assert doomed.handle is None
    assert server.shed == 1


def test_brownout_sheds_best_effort_before_batch_and_never_interactive():
    server = _build_server(
        config=ServerConfig(
            engine_slots=1,
            brownout_enter_depth=10,
            brownout_exit_depth=4,
        )
    )
    interactive = [server.submit("alice", COUNT) for _ in range(2)]
    batch = [server.submit("bob", COUNT) for _ in range(2)]
    best_effort = [server.submit("carol", AGG) for _ in range(8)]
    finished = server.drain()
    assert all(t.state == "done" for t in interactive)
    shed = [t for t in finished if t.state == "shed"]
    assert shed, "expected brownout shedding"
    assert {t.priority for t in shed} == {BEST_EFFORT}
    assert all(t.shed_reason == "brownout" for t in shed)
    assert server.brownouts == 1
    assert not server.brownout  # exited once the backlog drained
    # Batch survived because best-effort absorbed the whole shed.
    assert all(t.state == "done" for t in batch)
    assert any(t.state == "shed" for t in best_effort)


def test_shed_tickets_count_and_describe():
    server = _build_server(config=ServerConfig(engine_slots=1))
    server.submit("alice", AGG)
    doomed = server.submit("carol", COUNT, deadline_s=1e-9)
    server.drain()
    text = doomed.describe()
    assert "shed" in text and "carol" in text
    assert "BROWNOUT" not in server.describe()
    assert any("tenant carol" in line for line in server.summary_lines())


# ----------------------------------------------------------------------
# Tenant isolation
# ----------------------------------------------------------------------
def test_one_tenants_poison_query_never_circuit_breaks_another():
    shark = _build_shark()
    server = SqlServer(shark)
    server.register_tenant("victim", BATCH)
    server.register_tenant("poisoner", BATCH)
    # Engine failures (not SQL analysis errors) feed the circuit: wire a
    # marker text to a task-level failure.
    plain_query_fn = server._query_fn

    def query_fn(text):
        if text == "POISON":
            def boom():
                raise TaskError(0, 0, ValueError("poison"))

            return boom
        return plain_query_fn(text)

    server._query_fn = query_fn
    for _ in range(CIRCUIT_FAILURE_THRESHOLD):
        ticket = server.submit("poisoner", "POISON", key="shared-key")
        server.drain()
        assert ticket.state == "failed"
    # The poisoner's circuit for this key is now open: the next submit
    # fails fast at promotion without entering the engine.
    rejected = server.submit("poisoner", "POISON", key="shared-key")
    server.drain()
    assert rejected.state == "failed"
    assert isinstance(rejected.error, QueryLifecycleError)
    assert rejected.handle is None
    # ...but the victim runs the same key untouched.
    ok = server.submit("victim", COUNT, key="shared-key")
    server.drain()
    assert ok.state == "done"


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_serving_section_in_explain_analyze_and_metrics():
    server = _build_server()
    server.submit("alice", AGG)
    server.drain()
    text = server.shark.explain_analyze(COUNT)
    assert "== serving ==" in text
    assert "tenant alice" in text
    metrics = server.shark.metrics
    assert metrics.value("server.submitted") == 1
    assert metrics.value("server.admitted") == 1
    assert metrics.value("server.completed") == 1
    assert metrics.value("server.tenants") == 3


def test_a_second_server_never_lowers_a_count():
    """The server.* counters read the tenants; a server that replaces
    another on one context counts on from the first one's totals."""
    shark = _build_shark()
    first = _build_server(shark)
    first.submit("alice", AGG)
    first.submit("bob", COUNT)
    first.drain()
    before = shark.metrics.snapshot()["counters"]
    assert before["server.completed"] == 2.0
    second = _build_server(shark)
    assert second.completed == 0
    assert shark.metrics.snapshot()["counters"] == before
    second.submit("carol", COUNT)
    second.drain()
    after = shark.metrics.snapshot()["counters"]
    assert after["server.submitted"] == 3.0
    assert after["server.completed"] == 3.0
    assert after["server.admitted"] == 3.0
    assert all(after[name] >= value for name, value in before.items())


def test_queue_depth_reads_the_pending_queries():
    server = _build_server()
    metrics = server.shark.metrics
    assert metrics.value("server.queue_depth") == 0
    server.submit("alice", AGG)
    server.submit("bob", COUNT)
    assert metrics.value("server.queue_depth") == 2
    server.drain()
    assert metrics.value("server.queue_depth") == 0
    assert metrics.value("server.brownout") == 0


def test_server_shed_writes_v4_event_log_records(tmp_path):
    path = tmp_path / "serving.jsonl"
    shark = _build_shark()
    shark.enable_event_log(path, source="test")
    server = SqlServer(shark, ServerConfig(engine_slots=1))
    server.register_tenant("alice", INTERACTIVE)
    server.register_tenant("carol", BEST_EFFORT)
    done = server.submit("alice", AGG, name="kept")
    doomed = server.submit("carol", COUNT, deadline_s=1e-9, name="doomed")
    server.drain()
    shark.close_event_log()
    assert done.state == "done" and doomed.state == "shed"

    from repro.obs.history import HistoryStore

    store = HistoryStore.load(path)
    by_name = {record.name: record for record in store.queries}
    assert by_name["kept"].tenant == "alice"
    assert by_name["kept"].priority == INTERACTIVE
    assert by_name["kept"].status == "ok"
    assert by_name["doomed"].status == "shed"
    assert by_name["doomed"].shed_reason == "deadline-unmeetable"
    report = store.tenant_report()
    assert "alice" in report and "carol" in report
    assert "deadline-unmeetable: 1" in report
    # A shed query never ran: its begin/end pair is all there is.
    from repro.obs.events import read_event_log

    assert [
        record["type"]
        for record in read_event_log(path)
        if record.get("query_id") == by_name["doomed"].query_id
    ] == ["query_begin", "query_end"]


def test_served_query_is_as_explainable_as_a_plain_one(tmp_path):
    """A served query's record is captured off its scope, so loaded from
    the log it has the jobs its handle ran, a plan, operator modes and
    plan-quality rows — and the quality report profiles every completed
    query."""
    from repro.obs.history import HistoryStore

    path = tmp_path / "serving.jsonl"
    shark = _build_shark()
    shark.enable_event_log(path, source="test")
    server = _build_server(shark)
    tickets = [
        server.submit("alice", AGG, name="agg"),
        server.submit("bob", FILTER, name="filter"),
        server.submit("carol", COUNT, name="count"),
    ]
    server.drain()
    profiles = {
        ticket.name: list(ticket.handle.scope.profiles)
        for ticket in tickets
    }
    shark.close_event_log()
    assert all(ticket.state == "done" for ticket in tickets)

    store = HistoryStore.load(path)
    for ticket in tickets:
        record = store.query(ticket.name)
        assert record.profiles == profiles[ticket.name]
        assert record.num_tasks > 0
        assert record.plan_text and record.operator_modes
        assert record.operator_profiles and record.stage_sim
        assert record.sim_seconds == ticket.handle.charged_seconds
        assert record.tenant == ticket.tenant
    assert store.query("agg").skew_records
    assert "3 profiled queries of 3" in store.plan_quality_report()
    assert store.cardinality_priors()


def test_server_drain_is_deterministic():
    def run_once():
        server = _build_server()
        server.submit("alice", AGG)
        server.submit("bob", FILTER)
        server.submit("carol", COUNT)
        return [
            (t.name, t.state, sorted(t.result.rows) if t.result else None)
            for t in server.drain()
        ]

    assert run_once() == run_once()


def test_drain_leaves_no_admission_ledger_leak():
    server = _build_server()
    for tenant in ("alice", "bob", "carol"):
        server.submit(tenant, AGG)
    server.submit("carol", COUNT, deadline_s=1e-9)
    server.drain()
    assert server.lifecycle.admission_ledger()["terminal"] == 4
    assert server.shark.engine.invariant_violations() == []


def test_a_finished_ticket_is_held_only_by_its_caller():
    # One slot: the blocker runs while the clock passes the doomed
    # query's deadline, so the drain finishes one ticket per outcome.
    server = _build_server(config=ServerConfig(engine_slots=1))
    tickets = [
        server.submit("alice", AGG, name="done"),
        server.submit("bob", "SELECT nope FROM readings", name="failed"),
        server.submit("carol", COUNT, deadline_s=1e-9, name="doomed"),
    ]
    finished = server.drain()
    assert [t.name for t in finished] == ["done", "doomed", "failed"]
    assert [t.state for t in tickets] == ["done", "failed", "shed"]
    refs = [weakref.ref(t) for t in tickets] + [
        ref for t in tickets if t.handle is not None for ref in held_by(t.handle)
    ]
    assert len(refs) == 8
    del tickets, finished
    assert still_reachable(refs) == []
    assert server.drain() == []


def test_served_queries_leave_the_job_history_as_it_was():
    """A served query's jobs stay on its handle's scope, which its
    record reads: the context's history, which a server never resets,
    does not grow with every query it serves."""
    shark = _build_shark()
    shark.sql(COUNT)  # a statement's jobs are in the history
    before = len(shark.engine.profiles)
    assert before > 0
    server = _build_server(shark)
    tickets = [
        server.submit(tenant, text)
        for __ in range(4)
        for tenant, text in (("alice", AGG), ("bob", FILTER), ("carol", COUNT))
    ]
    server.drain()
    assert all(ticket.state == "done" for ticket in tickets)
    assert all(ticket.handle.scope.profiles for ticket in tickets)
    assert len(shark.engine.profiles) == before
