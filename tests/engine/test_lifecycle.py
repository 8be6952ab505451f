"""Query lifecycle: admission, deadlines, cancellation, fairness, circuits.

The acceptance bar (ISSUE 3): with the fault injector active, K
concurrently admitted queries where one is cancelled mid-flight and one
exceeds its deadline must leave the survivors byte-identical to serial
fault-free execution, raise typed errors for the cancelled/expired
queries, and leave no open tracer spans, no orphaned pinned shuffle
blocks, and no accumulator contributions from cancelled attempts.
"""

import gc
import threading
import weakref

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.engine import EngineContext
from repro.engine.lifecycle import (
    CIRCUIT_FAILURE_THRESHOLD,
    CIRCUIT_RESET_COMPLETIONS,
    DRAIN_RATE_WINDOW,
    LifecycleConfig,
)
from repro.engine.metrics import QueryProfile
from repro.engine.scheduler import BLACKLIST_THRESHOLD
from repro.engine.task import TaskContext
from repro.errors import (
    AdmissionRejected,
    EngineError,
    QueryCancelledError,
    QueryCircuitOpenError,
    QueryDeadlineExceeded,
    TaskError,
)
from repro.faults import FaultInjector
from tests.engine.test_query_scope import NOTHING, engine_holds


def _build_shark(fault_injector=None) -> SharkContext:
    shark = SharkContext(num_workers=4, fault_injector=fault_injector)
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


QUERIES = {
    "agg": (
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket"
    ),
    "count": "SELECT COUNT(*) FROM readings",
    "filter": "SELECT day, COUNT(*) FROM readings WHERE value > 40 GROUP BY day",
}


class TestAdmissionControl:
    def test_beyond_capacity_raises_typed_rejection(self):
        shark = _build_shark()
        shark.enable_lifecycle(LifecycleConfig(max_concurrent=1, max_queued=1))
        shark.submit_sql(QUERIES["count"], name="running")
        shark.submit_sql(QUERIES["count"], name="queued")
        with pytest.raises(AdmissionRejected) as info:
            shark.submit_sql(QUERIES["count"], name="overflow")
        assert info.value.retry_after_s > 0
        assert info.value.running == 1
        assert info.value.queued == 1
        assert shark.metrics.value("queries.rejected") == 1
        shark.lifecycle.drain()

    def test_queued_query_promoted_and_completes(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=2)
        )
        first = shark.submit_sql(QUERIES["count"], name="a")
        second = shark.submit_sql(QUERIES["count"], name="b")
        assert first.state == "running"
        assert second.state == "queued"
        lifecycle.drain()
        assert first.state == "done" and second.state == "done"
        assert first.result.rows == second.result.rows == [(3000,)]

    def test_retry_hint_reflects_completed_durations(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=0)
        )
        handle = shark.submit_sql(QUERIES["agg"], name="first")
        lifecycle.drain()
        assert handle.charged_seconds > 0
        shark.submit_sql(QUERIES["count"], name="second")
        with pytest.raises(AdmissionRejected) as info:
            shark.submit_sql(QUERIES["count"], name="rejected")
        # The hint derives from the completed query's simulated seconds.
        assert info.value.retry_after_s == pytest.approx(
            handle.charged_seconds, rel=1e-6
        )
        lifecycle.drain()

    def test_cancel_queued_query_is_immediate(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=1)
        )
        shark.submit_sql(QUERIES["count"], name="running")
        queued = shark.submit_sql(QUERIES["count"], name="victim")
        queued.cancel()
        assert queued.state == "cancelled"
        assert isinstance(queued.error, QueryCancelledError)
        lifecycle.drain()
        # The cancelled query never launched a task.
        assert queued.tasks_launched == 0

    def test_event_log_records_by_outcome(self, tmp_path):
        """A query that ran logs the record captured off its scope —
        jobs, plan, operator modes, like a plain statement's — and one
        cancelled while queued still logs its begin/end pair."""
        from repro.obs.events import read_event_log
        from repro.obs.history import HistoryStore

        shark = _build_shark()
        path = tmp_path / "events.jsonl"
        shark.enable_event_log(path)
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=1)
        )
        ran = shark.submit_sql(QUERIES["agg"], name="ran")
        queued = shark.submit_sql(QUERIES["count"], name="victim")
        queued.cancel()
        lifecycle.drain()
        live_profiles = list(ran.scope.profiles)
        shark.close_event_log()

        victim_id = f"lifecycle-{queued.query_id}"
        assert [
            record["type"]
            for record in read_event_log(path)
            if record.get("query_id") == victim_id
        ] == ["query_begin", "query_end"]
        store = HistoryStore.load(path)
        assert store.query("victim").status == "cancelled"
        loaded = store.query("ran")
        assert loaded.profiles == live_profiles and loaded.num_tasks > 0
        assert loaded.plan_text and loaded.operator_modes
        assert loaded.result_rows == len(ran.result.rows)
        # Charged seconds (what deadlines meter), not the makespan the
        # stage_sim rows add up to; nothing sliced from shared buffers.
        assert loaded.sim_seconds == ran.charged_seconds
        assert loaded.stage_sim
        assert not (loaded.timeline or loaded.counters or loaded.memory)


class TestFairness:
    def test_short_query_beats_earlier_long_query(self):
        ctx = EngineContext(num_workers=4, cores_per_worker=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        long_rdd = ctx.parallelize(range(6000), 12)
        short_rdd = ctx.parallelize(range(10), 1)
        long_handle = lifecycle.submit(
            lambda: long_rdd.map(lambda x: x * 2).collect(), name="long"
        )
        short_handle = lifecycle.submit(
            lambda: short_rdd.map(lambda x: x * 2).collect(), name="short"
        )
        finished = lifecycle.drain()
        # Submitted second, finished first: tasks interleave instead of
        # FIFO, so 1 task does not wait behind 12.
        assert [handle.name for handle in finished] == ["short", "long"]
        assert short_handle.result == [x * 2 for x in range(10)]
        assert long_handle.result == [x * 2 for x in range(6000)]

    def test_wait_drives_other_queries_fairly(self):
        shark = _build_shark()
        shark.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        other = shark.submit_sql(QUERIES["agg"], name="other")
        target = shark.submit_sql(QUERIES["count"], name="target")
        result = target.result_or_raise()
        assert result.rows == [(3000,)]
        # Waiting on one handle still gave the other its turns.
        assert other.tasks_launched > 0
        assert len(other.result_or_raise().rows) == 6


class TestCancellation:
    def test_cancel_mid_flight_raises_typed_error_and_cleans_up(self):
        shark = _build_shark()
        shark.enable_tracing()
        lifecycle = shark.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        victim = shark.submit_sql(
            QUERIES["agg"], name="victim"
        ).cancel_after_tasks(3)
        survivor = shark.submit_sql(QUERIES["count"], name="survivor")
        lifecycle.drain()

        assert victim.state == "cancelled"
        assert isinstance(victim.error, QueryCancelledError)
        assert not isinstance(victim.error, QueryDeadlineExceeded)
        with pytest.raises(QueryCancelledError):
            victim.result_or_raise()
        assert survivor.result.rows == [(3000,)]

        assert shark.metrics.value("queries.cancelled") == 1
        assert len(shark.trace.events_named("query.cancelled")) == 1

    def test_cancelled_attempts_never_touch_accumulators(self):
        from repro.engine.accumulator import Accumulator

        ctx = EngineContext(num_workers=4, cores_per_worker=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig())
        counting = Accumulator(0, lambda a, b: a + b)
        rdd = ctx.parallelize(range(80), 8)

        def count_records():
            def bump(x):
                counting.add(1)  # buffered per attempt, merged if kept
                return x

            return rdd.map(bump).collect()

        handle = lifecycle.submit(count_records, name="doomed")
        handle.cancel_after_tasks(3)
        with pytest.raises(QueryCancelledError):
            lifecycle.wait(handle)
        # 3 tasks launched and kept before the cancel fired, 10 records
        # each; cancelled (never-merged) attempts contributed nothing.
        assert counting.value == 30

    def test_armed_token_stops_inflight_iterator(self):
        """In-flight attempts observe the token at RDD boundaries."""
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig())
        handle = lifecycle.submit(lambda: None, name="q")
        handle.token.cancel("cancelled")
        rdd = ctx.parallelize(range(10), 1)
        worker = ctx.cluster.worker(0)
        from repro.engine.metrics import TaskMetrics

        task_ctx = TaskContext(
            stage_id=0,
            partition=0,
            worker=worker,
            shuffle_manager=ctx.shuffle_manager,
            cache_tracker=ctx.cache_tracker,
            metrics=TaskMetrics(),
            cancel_token=handle.token,
        )
        with pytest.raises(QueryCancelledError):
            rdd.iterator(0, task_ctx)
        lifecycle.drain()

    def test_cancel_after_done_is_noop(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(LifecycleConfig())
        handle = shark.submit_sql(QUERIES["count"], name="q")
        lifecycle.drain()
        assert handle.state == "done"
        handle.cancel()
        assert handle.state == "done"
        assert handle.error is None


class TestDeadlines:
    def test_deadline_exceeded_mid_flight(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(LifecycleConfig())
        late = shark.submit_sql(
            QUERIES["agg"], name="late", deadline_s=1e-9
        )
        lifecycle.drain()
        assert late.state == "deadline"
        assert isinstance(late.error, QueryDeadlineExceeded)
        # ... which is also a cancellation (one handler catches both).
        assert isinstance(late.error, QueryCancelledError)
        assert late.error.deadline_s == 1e-9
        assert late.error.elapsed_s > 1e-9
        # The deadline fired mid-flight, not after everything ran.
        assert late.tasks_launched < 16
        assert shark.metrics.value("queries.deadline_expired") == 1

    def test_generous_deadline_completes(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(LifecycleConfig())
        handle = shark.submit_sql(
            QUERIES["count"], name="fine", deadline_s=1e6
        )
        lifecycle.drain()
        assert handle.state == "done"
        assert handle.result.rows == [(3000,)]


class TestCircuitBreaker:
    def test_repeated_failures_open_then_half_open(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle()

        def boom():
            raise TaskError(0, 0, ValueError("boom"))

        for index in range(CIRCUIT_FAILURE_THRESHOLD):
            handle = lifecycle.submit(boom, name=f"bad{index}", key="bad")
            with pytest.raises(TaskError):
                lifecycle.wait(handle)
        # Consecutive engine failures on one key: circuit open.
        with pytest.raises(QueryCircuitOpenError) as info:
            lifecycle.submit(boom, name="bad again", key="bad")
        assert info.value.key == "bad"
        assert info.value.retry_after_completions > 0
        assert ctx.metrics.value("queries.circuit_opened") == 1

        # Other keys are unaffected and their completions age the circuit.
        for index in range(CIRCUIT_RESET_COMPLETIONS):
            ok = lifecycle.submit(lambda: 42, name=f"ok{index}")
            assert lifecycle.wait(ok) == 42

        # Half-open: one trial is admitted; success closes the circuit.
        trial = lifecycle.submit(lambda: 7, name="trial", key="bad")
        assert lifecycle.wait(trial) == 7
        again = lifecycle.submit(lambda: 8, name="again", key="bad")
        assert lifecycle.wait(again) == 8

    def test_cancellation_does_not_trip_the_circuit(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle()
        for index in range(CIRCUIT_FAILURE_THRESHOLD + 1):
            handle = shark.submit_sql(
                QUERIES["agg"], name=f"c{index}", key="same"
            ).cancel_after_tasks(1)
            with pytest.raises(QueryCancelledError):
                lifecycle.wait(handle)
        # Cancellations are not engine failures: no circuit opened.
        handle = shark.submit_sql(QUERIES["count"], name="fine", key="same")
        assert lifecycle.wait(handle).rows == [(3000,)]


class TestConcurrentChaosAcceptance:
    """The ISSUE 3 deterministic acceptance test."""

    def _serial_baseline(self):
        shark = _build_shark()
        return {
            name: sorted(shark.sql(text).rows)
            for name, text in QUERIES.items()
        }

    def test_concurrent_queries_under_chaos(self):
        baseline = self._serial_baseline()
        injector = FaultInjector(
            seed=13,
            transient_failure_rate=0.10,
            stragglers_per_stage=1,
            straggler_slowdown=6.0,
        )
        shark = _build_shark(fault_injector=injector)
        shark.enable_tracing()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=4, max_queued=0)
        )

        survivors = {
            "agg": shark.submit_sql(QUERIES["agg"], name="agg"),
            "filter": shark.submit_sql(QUERIES["filter"], name="filter"),
        }
        cancelled = shark.submit_sql(
            QUERIES["agg"], name="cancelled", key="cancelled"
        ).cancel_after_tasks(4)
        deadlined = shark.submit_sql(
            QUERIES["filter"], name="deadlined", deadline_s=1e-9
        )
        lifecycle.drain()

        # Typed terminal errors for the killed queries.
        assert cancelled.state == "cancelled"
        assert isinstance(cancelled.error, QueryCancelledError)
        assert deadlined.state == "deadline"
        assert isinstance(deadlined.error, QueryDeadlineExceeded)

        # Survivors: byte-identical to serial fault-free execution.
        for name, handle in survivors.items():
            assert handle.state == "done"
            assert sorted(handle.result.rows) == baseline[name], name

        # The lifecycle ledger agrees.
        assert lifecycle.completed == 2
        assert lifecycle.cancelled == 1
        assert lifecycle.deadline_expired == 1
        # And the chaos was real.
        assert injector.injected_transient > 0

    def test_identical_to_serial_under_chaos_rerun(self):
        """Determinism: the same seed gives the same interleaving."""

        def run_once():
            injector = FaultInjector(seed=21, transient_failure_rate=0.12)
            shark = _build_shark(fault_injector=injector)
            lifecycle = shark.enable_lifecycle(
                LifecycleConfig(max_concurrent=3)
            )
            handles = [
                shark.submit_sql(QUERIES["agg"], name="a"),
                shark.submit_sql(QUERIES["count"], name="b"),
                shark.submit_sql(QUERIES["filter"], name="c"),
            ]
            finished = lifecycle.drain()
            return (
                [handle.name for handle in finished],
                [sorted(handle.result.rows) for handle in handles],
                [handle.tasks_launched for handle in handles],
            )

        assert run_once() == run_once()


class TestCorruptionIsolation:
    """A corrupted shuffle fetch during a cancelled query must not poison
    a concurrently running query's shuffle state."""

    def test_corrupted_fetch_in_cancelled_query_isolated(self):
        serial = self._serial()
        injector = FaultInjector(
            seed=5, corrupt_fetch_rate=1.0, max_corrupt_fetches=1
        )
        shark = _build_shark(fault_injector=injector)
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=2)
        )
        # The victim hits the (single) corrupted fetch in its driver
        # merge after its 8 map tasks, starts lineage recovery, and is
        # cancelled mid-recovery, as the lost map output's task launches
        # (it would finish at 9 tasks unharmed).
        victim = shark.submit_sql(
            QUERIES["agg"], name="victim"
        ).cancel_after_tasks(9)
        survivor = shark.submit_sql(QUERIES["filter"], name="survivor")
        lifecycle.drain()

        assert injector.injected_corruptions == 1
        assert victim.state == "cancelled"
        assert survivor.state == "done"
        assert sorted(survivor.result.rows) == serial
        # The victim's shuffle state is gone entirely; the survivor's is
        # intact and consistent with the workers' pinned blocks.
        assert shark.engine.invariant_violations() == []
        for shuffle_id in victim.scope.shuffle_ids:
            assert not shark.engine.shuffle_manager.is_registered(shuffle_id)

        # The same survivor query still answers correctly afterwards.
        rerun = shark.sql(QUERIES["filter"])
        assert sorted(rerun.rows) == serial

    def _serial(self):
        shark = _build_shark()
        return sorted(shark.sql(QUERIES["filter"]).rows)


class TestObservability:
    def test_explain_analyze_carries_lifecycle_note(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(LifecycleConfig())
        handle = shark.submit_sql(QUERIES["count"], name="q")
        lifecycle.drain()
        assert handle.state == "done"
        text = shark.explain_analyze(QUERIES["count"])
        assert "lifecycle:" in text
        assert "1 completed" in text

    def test_concurrent_spans_nest_under_their_own_query(self):
        shark = _build_shark()
        shark.enable_tracing()
        lifecycle = shark.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        shark.submit_sql(QUERIES["agg"], name="left")
        shark.submit_sql(QUERIES["filter"], name="right")
        lifecycle.drain()
        spans_by_id = {span.span_id: span for span in shark.trace.spans}
        lifecycle_spans = {
            span.span_id: span.name
            for span in shark.trace.spans
            if span.name in ("query left", "query right")
        }
        job_spans = [
            span for span in shark.trace.spans if span.category == "job"
        ]
        assert len(lifecycle_spans) == 2
        assert job_spans

        def owning_query(span):
            while span.parent_id is not None:
                if span.parent_id in lifecycle_spans:
                    return lifecycle_spans[span.parent_id]
                span = spans_by_id[span.parent_id]
            return None

        owners = {owning_query(span) for span in job_spans}
        # Every job nests under exactly one query's span stack, never the
        # other query's half-open stack (per-query span stacks) — and
        # both queries ran jobs.
        assert owners == {"query left", "query right"}

    def test_lifecycle_describe_counts(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=0)
        )
        done = shark.submit_sql(QUERIES["count"], name="ok")
        with pytest.raises(AdmissionRejected):
            shark.submit_sql(QUERIES["count"], name="nope")
        lifecycle.drain()
        text = lifecycle.describe()
        assert "2 submitted" in text
        assert "1 completed" in text
        assert "1 rejected" in text
        assert done.state == "done"

    def test_drain_inside_query_is_rejected(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig())

        def recursive():
            lifecycle.drain()

        handle = lifecycle.submit(recursive, name="recursive")
        lifecycle.drain()
        assert handle.state == "failed"
        assert isinstance(handle.error, EngineError)


class TestQueryScopeIsolation:
    """Each query's engine state lives on its own QueryScope: what one
    query's exit gives back is exactly what that query held."""

    def test_every_outcome_releases_everything(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=4)
        )
        done = shark.submit_sql(QUERIES["agg"], name="done")
        cancelled = shark.submit_sql(
            QUERIES["filter"], name="cancelled"
        ).cancel_after_tasks(8)
        deadlined = shark.submit_sql(
            QUERIES["agg"], name="deadlined", deadline_s=1e-9
        )

        def plan_then_fail():
            shark.sql2rdd(QUERIES["agg"])  # PDE pre-shuffle runs in plan()
            raise TaskError(0, 0, ValueError("x"))

        failed = lifecycle.submit(plan_then_fail, name="failed")
        lifecycle.drain()
        assert [h.state for h in (done, cancelled, deadlined, failed)] == [
            "done", "cancelled", "deadline", "failed"
        ]
        # Each of them ran map tasks, so each held something (the
        # cancelled one is stopped at its last: with its merge on the
        # driver, no task of it follows).
        for handle in (done, cancelled, failed):
            assert handle.scope.shuffle_ids, handle.name
        assert shark.metrics.value("shuffle.released.blocks") >= 24
        assert engine_holds(shark) == NOTHING

    def test_exit_of_one_query_keeps_anothers_broadcast_charged(self):
        shark = _build_shark()
        shark.create_table(
            "events", Schema.of(("bucket", STRING), ("day", INT)), cached=True
        )
        shark.load_rows(
            "events", [(f"b{i % 6}", i % 15) for i in range(4000)],
            num_partitions=24,
        )
        shark.create_table(
            "labels", Schema.of(("bucket", STRING), ("label", STRING)),
            cached=True,
        )
        shark.load_rows(
            "labels", [(f"b{i}", f"label{i}") for i in range(6)],
            num_partitions=1,
        )
        lifecycle = shark.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        # A broadcasts its one-task build table, then streams 24 tasks;
        # B (nine tasks) finishes while A is mid-stream.
        join = shark.submit_sql(
            "SELECT e.day, l.label FROM events e "
            "JOIN labels l ON e.bucket = l.bucket",
            name="A",
        )
        count = shark.submit_sql(QUERIES["count"], name="B")
        lifecycle.wait(count)
        assert count.state == "done" and not join.done
        memory = shark.engine.memory
        (broadcast,) = join.scope.broadcasts
        assert count.scope.broadcasts == []
        assert memory.live_bytes("execution") == broadcast.size_bytes > 0
        lifecycle.drain()
        assert join.state == "done" and len(join.result.rows) == 4000
        assert join.scope.broadcasts == []
        assert engine_holds(shark) == NOTHING

    def test_explain_analyze_reports_only_its_own_jobs(self):
        def profile_lines(beside):
            shark = _build_shark()
            lifecycle = shark.enable_lifecycle(
                LifecycleConfig(max_concurrent=2)
            )
            shark.engine.reset_profiles()
            handle = shark.submit_sql(
                "EXPLAIN ANALYZE " + QUERIES["agg"], name="explained"
            )
            handles = [handle]
            if beside:
                handles.append(shark.submit_sql(
                    "SELECT day, value FROM readings "
                    "ORDER BY value, day LIMIT 5",
                    name="beside",
                ))
            lifecycle.drain()
            text = handle.result.plan_text
            lines = [
                # Stage ids come from a context-wide counter.
                line.split("(", 1)[1] if line.startswith("  stage ") else line
                for line in text.splitlines()
                if "stage " in line or "runtime profile" in line
                or line.startswith("  shuffle ")
            ]
            jobs = [len(each.scope.profiles) for each in handles]
            return lines, jobs, len(shark.engine.profiles)

        alone, alone_jobs, alone_history = profile_lines(beside=False)
        beside, all_jobs, all_history = profile_lines(beside=True)
        assert alone[0].startswith("== runtime profile (2 jobs, ")
        assert beside == alone
        # ... and nothing was cleared under the other query's feet: each
        # handle's scope holds every job it ran (a served query's jobs
        # stay on its scope, not in the context's history).
        assert alone_jobs == [2] and all_jobs[0] == 2 and all_jobs[1] > 0
        assert alone_history == all_history == 0


class TestTraceDrainOnCancellation:
    """Regression: the cleanup loop used ``end_span``, which no-ops when
    tracing is disabled — a query cancelled after tracing was turned off
    mid-flight spun forever on its span stack (tripping the conftest
    hang guard) and leaked the open spans.  ``Tracer.drain_stack`` must
    close everything regardless of the enabled flag, idempotently."""

    def test_cancel_with_tracing_disabled_mid_query(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle()
        shark.enable_tracing()

        def work():
            # The query span is already open on this query's private
            # stack; open a child, then disable tracing and cancel.
            shark.tracer.begin_span("mid-query work", "job")
            shark.disable_tracing()
            raise QueryCancelledError("victim")

        handle = lifecycle.submit(work, name="victim")
        with pytest.raises(QueryCancelledError):
            lifecycle.wait(handle)

        assert handle.state == "cancelled"
        # The private stack was drained despite the disabled tracer ...
        assert handle.scope.span_stack == []
        # ... and every recorded span ended with a terminal status.
        assert shark.trace.spans
        query_span = shark.trace.spans_in_category("query")[0]
        assert query_span.args["status"] == "cancelled"
        # Draining again is a no-op (idempotent).
        shark.tracer.drain_stack(handle.scope.span_stack, status="cancelled")
        assert handle.scope.span_stack == []

    def test_cancelled_query_dumps_flight_recorder(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle()
        assert not shark.tracer.enabled  # tracing stays off throughout
        handle = shark.submit_sql(
            QUERIES["agg"], name="victim"
        ).cancel_after_tasks(3)
        with pytest.raises(QueryCancelledError):
            lifecycle.wait(handle)
        dump = shark.tracer.flight.last_dump
        assert dump is not None
        assert dump["reason"] == "cancelled"
        assert dump["query_id"] == f"lifecycle-{handle.query_id}"
        assert dump["events"]  # partial timeline despite tracing off
        assert shark.metrics.value("flight.dumps") == 1


class TestWeightedFairness:
    def test_heavier_weight_finishes_first(self):
        ctx = EngineContext(num_workers=4, cores_per_worker=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        rdd = ctx.parallelize(range(1200), 12)
        light = lifecycle.submit(
            lambda: rdd.map(lambda x: x + 1).collect(),
            name="light",
            weight=1,
        )
        heavy = lifecycle.submit(
            lambda: rdd.map(lambda x: x + 1).collect(),
            name="heavy",
            weight=8,
        )
        finished = lifecycle.drain()
        # Same job, submitted later — but 8 task slots per 1 means the
        # heavier query overtakes and completes first.
        assert [handle.name for handle in finished] == ["heavy", "light"]
        assert heavy.result == light.result == [x + 1 for x in range(1200)]

    def test_weight_floor_is_one(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle()
        handle = lifecycle.submit(lambda: 1, name="q", weight=0)
        assert handle.weight == 1
        assert lifecycle.wait(handle) == 1

    def test_weighted_drain_is_deterministic(self):
        def run_once():
            ctx = EngineContext(num_workers=4, cores_per_worker=2)
            lifecycle = ctx.enable_lifecycle(
                LifecycleConfig(max_concurrent=3)
            )
            rdd = ctx.parallelize(range(600), 6)
            for name, weight in (("a", 8), ("b", 2), ("c", 1)):
                lifecycle.submit(
                    lambda: rdd.map(lambda x: x * 3).collect(),
                    name=name,
                    weight=weight,
                )
            finished = lifecycle.drain()
            return [
                (handle.name, handle.tasks_launched) for handle in finished
            ]

        assert run_once() == run_once()


class TestTenantIsolation:
    """Satellite 1: circuit breaker and worker blacklist scoped per
    tenant — one tenant's failures never fail-fast or blacklist for
    another."""

    def _boom(self):
        raise TaskError(0, 0, ValueError("boom"))

    def test_circuit_is_scoped_to_the_failing_tenant(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle()
        for index in range(CIRCUIT_FAILURE_THRESHOLD):
            handle = lifecycle.submit(
                self._boom, name=f"a{index}", key="hot", tenant="a"
            )
            with pytest.raises(TaskError):
                lifecycle.wait(handle)
        # Tenant a's circuit for this key is open...
        with pytest.raises(QueryCircuitOpenError):
            lifecycle.submit(self._boom, name="a3", key="hot", tenant="a")
        # ...but the same key admits untouched for tenant b and for
        # tenantless submissions.
        other = lifecycle.submit(lambda: 1, name="b1", key="hot", tenant="b")
        assert lifecycle.wait(other) == 1
        anon = lifecycle.submit(lambda: 2, name="anon", key="hot")
        assert lifecycle.wait(anon) == 2

    def test_worker_failures_attributed_to_the_running_tenant(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=1))
        scheduler = ctx.scheduler
        threshold = BLACKLIST_THRESHOLD

        def fail_on_worker(times):
            def fn():
                for _ in range(times):
                    scheduler._note_worker_failure(0, QueryProfile(0))

            return fn

        # Each tenant stays one failure below the threshold on the same
        # worker: attribution is per (tenant, worker), so their counts
        # never merge and nothing is blacklisted.
        for tenant in ("a", "b"):
            handle = lifecycle.submit(
                fail_on_worker(threshold - 1), name=tenant, tenant=tenant
            )
            lifecycle.wait(handle)
        assert not ctx.cluster.is_blacklisted(0)

        # One more failure from a single tenant crosses its own count.
        handle = lifecycle.submit(fail_on_worker(1), name="last", tenant="a")
        lifecycle.wait(handle)
        assert ctx.cluster.is_blacklisted(0)
        assert ctx.cluster.blacklisted_workers() == [0]


class TestCounters:
    def test_a_new_manager_never_lowers_a_count(self):
        """The queries.* counters read the manager; the manager a new
        config puts in its place counts on from the old one's totals."""
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(LifecycleConfig())
        shark.submit_sql(QUERIES["count"], name="first")
        lifecycle.drain()
        metrics = shark.metrics
        assert metrics.value("queries.submitted") == 1.0
        assert metrics.value("queries.completed") == 1.0
        lifecycle = shark.enable_lifecycle(LifecycleConfig(max_queued=3))
        assert lifecycle.completed == 0
        assert metrics.value("queries.completed") == 1.0
        shark.submit_sql(QUERIES["count"], name="second")
        lifecycle.drain()
        assert metrics.value("queries.submitted") == 2.0
        assert metrics.value("queries.completed") == 2.0

    def test_each_rejection_counts_in_its_own_field(self):
        """A capacity rejection and a circuit rejection each read one
        field; ``rejected`` is their sum, as the admission ledger counts."""
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=1)
        )

        def boom():
            raise TaskError(0, 0, ValueError("boom"))

        for index in range(CIRCUIT_FAILURE_THRESHOLD):
            with pytest.raises(TaskError):
                lifecycle.wait(
                    lifecycle.submit(boom, name=f"bad{index}", key="bad")
                )
        with pytest.raises(QueryCircuitOpenError):
            lifecycle.submit(boom, name="bad again", key="bad")
        running = lifecycle.submit(lambda: 1, name="running")
        queued = lifecycle.submit(lambda: 2, name="queued")
        for name in ("over", "over again"):
            with pytest.raises(AdmissionRejected):
                lifecycle.submit(lambda: 3, name=name)
        assert (lifecycle.capacity_rejected, lifecycle.circuit_rejected) == (
            2, 1,
        )
        assert lifecycle.rejected == 3
        assert ctx.metrics.value("queries.rejected") == 2.0
        assert ctx.metrics.value("queries.circuit_rejected") == 1.0
        assert lifecycle.admission_ledger()["rejected"] == 3
        lifecycle.drain()
        assert (running.state, queued.state) == ("done", "done")


class TestRetryAfterDrainRate:
    """Satellite 2: rejection hints derive from the observed completion
    drain rate on the simulated clock."""

    def test_hint_matches_the_observed_drain_rate(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=1)
        )
        for index in range(3):
            shark.submit_sql(QUERIES["count"], name=f"warm{index}")
            lifecycle.drain()
        samples = lifecycle._drain_times[-DRAIN_RATE_WINDOW:]
        rate = (len(samples) - 1) / (samples[-1] - samples[0])

        shark.submit_sql(QUERIES["count"], name="running")
        shark.submit_sql(QUERIES["count"], name="queued")
        with pytest.raises(AdmissionRejected) as info:
            shark.submit_sql(QUERIES["count"], name="rejected")
        # One queued ahead plus this query: two drains at the rate.
        assert info.value.retry_after_s == pytest.approx(2.0 / rate)
        lifecycle.drain()

    def test_client_honoring_the_hint_eventually_admits(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=1)
        )
        shark.submit_sql(QUERIES["agg"], name="one")
        shark.submit_sql(QUERIES["agg"], name="two")
        admitted = None
        for _ in range(10):
            try:
                admitted = shark.submit_sql(QUERIES["count"], name="retried")
                break
            except AdmissionRejected as rejection:
                assert rejection.retry_after_s > 0
                # Honor the hint: wait out the backlog, then retry.
                lifecycle.drain()
        assert admitted is not None
        lifecycle.drain()
        assert admitted.state == "done"
        assert admitted.result.rows == [(3000,)]


def held_by(handle) -> list:
    """Weak references to a query's handle, its scope and its result."""
    held = [handle, handle.scope]
    if handle.result is not None:
        held.append(handle.result)
    return [weakref.ref(obj) for obj in held]


def still_reachable(refs) -> list[str]:
    """The referents of ``refs`` that survive a full collection."""
    gc.collect()
    return [type(ref()).__name__ for ref in refs if ref() is not None]


class TestFinishedQueriesAreForgotten:
    """Only the caller holds a finished query: once it drops its handle,
    the handle, its scope and its result are unreachable, whatever the
    outcome and whether drain() or wait() finished it."""

    def test_every_outcome_under_drain(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=3)
        )
        handles = [
            shark.submit_sql(QUERIES["agg"], name="done"),
            shark.submit_sql("SELECT nope FROM readings", name="failed"),
            shark.submit_sql(QUERIES["count"], name="late", deadline_s=1e-9),
            shark.submit_sql(QUERIES["count"], name="withdrawn"),
        ]
        handles[3].cancel()
        assert [h.name for h in lifecycle.drain()] == ["done", "failed", "late"]
        assert [h.state for h in handles] == [
            "done", "failed", "deadline", "cancelled"
        ]
        refs = [ref for handle in handles for ref in held_by(handle)]
        assert len(refs) == 9
        del handles
        assert still_reachable(refs) == []
        assert lifecycle.admission_ledger()["terminal"] == 4

    def test_a_waited_handle(self):
        shark = _build_shark()
        lifecycle = shark.enable_lifecycle()
        handle = shark.submit_sql(QUERIES["count"])
        assert lifecycle.wait(handle).rows == [(3000,)]
        refs = held_by(handle)
        del handle
        assert still_reachable(refs) == []

    def test_drain_returns_only_its_own_completions(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=3)
        )
        first = lifecycle.submit(lambda: 1)
        assert lifecycle.drain() == [first]
        waited, drained, withdrawn = (
            lifecycle.submit(lambda value=value: value) for value in (2, 3, 4)
        )
        withdrawn.cancel()
        assert lifecycle.wait(waited) == 2
        # Finished before this call, by cancel() and by wait(): not its own.
        assert lifecycle.drain() == [drained]
        assert lifecycle.drain() == []
        assert lifecycle.terminal == 4


class TestAdmissionLedger:
    """Satellite 3: the slot ledger balances to zero on every terminal
    path — completed, cancelled (mid-flight and while queued),
    deadline-expired, failed, and rejected — chaos included."""

    def test_ledger_zero_across_every_terminal_path_under_chaos(self):
        injector = FaultInjector(
            seed=13,
            transient_failure_rate=0.10,
            stragglers_per_stage=1,
            straggler_slowdown=6.0,
        )
        shark = _build_shark(fault_injector=injector)
        lifecycle = shark.enable_lifecycle(
            LifecycleConfig(max_concurrent=2, max_queued=2)
        )

        survivor = shark.submit_sql(QUERIES["agg"], name="survivor")
        cancelled = shark.submit_sql(
            QUERIES["filter"], name="cancelled"
        ).cancel_after_tasks(2)
        deadlined = shark.submit_sql(
            QUERIES["agg"], name="deadlined", deadline_s=1e-9
        )
        withdrawn = shark.submit_sql(QUERIES["count"], name="withdrawn")
        with pytest.raises(AdmissionRejected):
            shark.submit_sql(QUERIES["count"], name="rejected")
        assert withdrawn.state == "queued"
        withdrawn.cancel()
        lifecycle.drain()

        failing = lifecycle.submit(
            lambda: (_ for _ in ()).throw(TaskError(0, 0, ValueError("x"))),
            name="failing",
        )
        with pytest.raises(TaskError):
            lifecycle.wait(failing)

        assert survivor.state == "done"
        assert cancelled.state == "cancelled"
        assert deadlined.state == "deadline"
        assert withdrawn.state == "cancelled"
        assert withdrawn.tasks_launched == 0
        assert failing.state == "failed"

        ledger = lifecycle.admission_ledger()
        assert ledger["terminal"] == 5
        assert ledger["rejected"] == 1
        assert ledger["submitted"] == 6
        assert injector.injected_transient > 0


def _launch_recorder(lifecycle) -> list:
    """Patch ``checkpoint`` to append, at every task launch, the id of
    the query that launches it (the baton's holder); returns the list it
    appends to."""
    launches = []
    checkpoint = lifecycle.checkpoint

    def recording_checkpoint():
        checkpoint()
        launches.append(lifecycle._baton.query_id)

    lifecycle.checkpoint = recording_checkpoint
    return launches


def _schedule_scenario(case: str):
    """Six queries over three tenants at three slots: one cancelled after
    3 tasks, one over its deadline mid-flight, three promoted from the
    queue.  ``case`` is ``weighted`` (tenants weigh 1, 2 and 4) or
    ``weighted-unit`` (every weight 1, so the fewest launched tasks run
    first).  Returns (launch order, finish order, final states)."""
    unit = case == "weighted-unit"
    ctx = EngineContext(num_workers=4, cores_per_worker=2)
    lifecycle = ctx.enable_lifecycle(
        LifecycleConfig(max_concurrent=3, max_queued=3)
    )
    launches = _launch_recorder(lifecycle)
    tenants = (("a", 1), ("b", 1 if unit else 2), ("c", 1 if unit else 4))

    def job(partitions, shuffle):
        rdd = ctx.parallelize(range(60), partitions)
        if shuffle:
            return lambda: sorted(
                rdd.map(lambda x: (x % 5, x)).reduce_by_key(lambda a, b: a + b)
                .collect()
            )
        return lambda: rdd.map(lambda x: x * 2).collect()

    shapes = ((6, False), (5, True), (3, False), (4, True), (2, False),
              (7, False))
    handles = []
    for i, (partitions, shuffle) in enumerate(shapes):
        tenant, weight = tenants[i % 3]
        handles.append(
            lifecycle.submit(
                job(partitions, shuffle),
                name=f"q{i}",
                tenant=tenant,
                weight=weight,
                deadline_s=1e-3 if i == 3 else None,
            )
        )
    handles[1].cancel_after_tasks(3)
    assert [h.state for h in handles] == ["running"] * 3 + ["queued"] * 3
    finished = lifecycle.drain()
    return (
        launches,
        [h.query_id for h in finished],
        [h.state for h in handles],
    )


#: The schedule of ``_schedule_scenario`` under the condition-variable
#: baton that direct handoff replaced: the query id at every task launch,
#: then the finish order.  How the baton moves between threads must leave
#: both exactly as they are.
BATON_SCHEDULES = {
    "weighted": (
        [2, 2, 1, 2, 1, 0, 3, 4, 4, 5, 5, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0],
        [2, 3, 4, 1, 5, 0],
    ),
    "weighted-unit": (
        [0, 1, 2, 0, 1, 2, 0, 3, 4, 4, 5, 5, 2, 5, 0, 5, 0, 5, 0, 5, 5],
        [1, 3, 4, 2, 0, 5],
    ),
}


class TestHandoff:
    """One wake per handoff: queries pass the baton among themselves in
    the order they always had, and a finished query's thread runs the
    next."""

    @pytest.mark.parametrize("case", sorted(BATON_SCHEDULES))
    def test_schedule_is_unchanged(self, case):
        launches, finished, states = _schedule_scenario(case)
        assert (launches, finished) == BATON_SCHEDULES[case]
        assert states == [
            "done", "cancelled", "done", "deadline", "done", "done"
        ]

    def test_sole_slot_never_hands_off_mid_query(self):
        """With one slot and three queued queries the running query is
        re-picked at every task: it goes on without a switch, so each
        query is granted the baton once.  A re-pick still observes its
        cancel as a handoff did (query 1 stops after 2 launches)."""
        ctx = EngineContext(num_workers=4)
        lifecycle = ctx.enable_lifecycle(
            LifecycleConfig(max_concurrent=1, max_queued=3)
        )
        launches = _launch_recorder(lifecycle)
        grants = []
        grant = lifecycle._grant

        def counting_grant(handle):
            grants.append(handle.query_id)
            return grant(handle)

        lifecycle._grant = counting_grant
        rdd = ctx.parallelize(range(40), 8)
        handles = [
            lifecycle.submit(lambda: rdd.map(lambda x: x + 1).collect())
            for _ in range(4)
        ]
        handles[1].cancel_after_tasks(3)
        lifecycle.drain()
        assert [h.state for h in handles] == [
            "done", "cancelled", "done", "done"
        ]
        assert launches == [0] * 8 + [1] * 2 + [2] * 8 + [3] * 8
        assert grants == [0, 1, 2, 3]

    def test_threads_are_bounded_and_reused(self, monkeypatch):
        ctx = EngineContext(num_workers=4)
        lifecycle = ctx.enable_lifecycle(
            LifecycleConfig(max_concurrent=4, max_queued=40)
        )
        baseline = threading.active_count()
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        alive = []
        checkpoint = lifecycle.checkpoint

        def sampling_checkpoint():
            checkpoint()
            alive.append(threading.active_count() - baseline)

        lifecycle.checkpoint = sampling_checkpoint
        rdd = ctx.parallelize(range(40), 4)
        for _ in range(40):
            lifecycle.submit(lambda: rdd.map(lambda x: x).collect())
        lifecycle.drain()
        assert lifecycle.completed == 40
        assert len(started) <= 4
        assert max(alive) <= 4
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_raising_wait(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig())
        baseline = threading.active_count()
        rdd = ctx.parallelize(range(10), 2)

        def boom():
            rdd.collect()
            raise ValueError("boom")

        lifecycle.submit(lambda: rdd.collect())
        failing = lifecycle.submit(boom)
        with pytest.raises(ValueError):
            lifecycle.wait(failing)
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_served_chaos_soak(self):
        from repro.serving.workload import run_soak

        baseline = threading.active_count()
        assert run_soak(queries=300, fault_seed=13, verbose=False) == 0
        assert threading.active_count() == baseline

    @pytest.mark.keeps_engine_state(reason="asserts its context is collected")
    def test_dropped_context_releases_its_manager(self):
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        rdd = ctx.parallelize(range(10), 2)
        for _ in range(3):
            lifecycle.submit(lambda: rdd.collect())
        lifecycle.drain()
        ref = weakref.ref(lifecycle)
        del ctx, lifecycle, rdd
        gc.collect()
        assert ref() is None

    def test_watchdog_ended_query_leaves_the_driver_sound(self, monkeypatch):
        """wait() returns with another query parked mid-flight.  Nobody
        drives, so nothing progresses for a whole watchdog period: the
        parked query fails typed, idle threads exit on their own, and the
        next drain still hands the baton one query at a time."""
        import time

        from repro.engine import lifecycle as lifecycle_module

        monkeypatch.setattr(lifecycle_module, "WATCHDOG_TIMEOUT_S", 0.2)
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(LifecycleConfig(max_concurrent=2))
        baseline = threading.active_count()
        long_rdd = ctx.parallelize(range(40), 8)
        short_rdd = ctx.parallelize(range(4), 1)
        parked = lifecycle.submit(lambda: long_rdd.collect(), name="parked")
        short = lifecycle.submit(lambda: short_rdd.collect(), name="short")
        assert lifecycle.wait(short) == [0, 1, 2, 3]
        assert parked.state == "running"
        give_up = time.monotonic() + 30
        while time.monotonic() < give_up and (
            not parked.done or threading.active_count() > baseline
        ):
            time.sleep(0.05)
        assert parked.state == "failed"
        assert "waited" in str(parked.error)
        assert threading.active_count() == baseline
        later = [
            lifecycle.submit(lambda: long_rdd.collect()) for _ in range(2)
        ]
        lifecycle.drain()
        assert [h.result for h in later] == [list(range(40))] * 2
        assert threading.active_count() == baseline

    def test_watchdog_spares_a_drain_that_keeps_progressing(
        self, monkeypatch
    ):
        """The watchdog measures progress, not time parked: a drain many
        watchdog periods long completes, though the driver parks through
        all of it and unit-weight fairness passes the long query over
        while thirty fresh one-task queries are promoted ahead of it."""
        import time

        from repro.engine import lifecycle as lifecycle_module

        timeout = 0.2
        monkeypatch.setattr(lifecycle_module, "WATCHDOG_TIMEOUT_S", timeout)
        ctx = EngineContext(num_workers=2)
        lifecycle = ctx.enable_lifecycle(
            LifecycleConfig(max_concurrent=2, max_queued=30)
        )
        baseline = threading.active_count()

        def slow(x):
            time.sleep(0.02)
            return x

        long_rdd = ctx.parallelize(range(8), 8)
        short_rdd = ctx.parallelize(range(1), 1)
        long = lifecycle.submit(
            lambda: long_rdd.map(slow).collect(), name="long"
        )
        shorts = [
            lifecycle.submit(lambda: short_rdd.map(slow).collect())
            for _ in range(31)
        ]
        began = time.monotonic()
        finished = lifecycle.drain()
        assert time.monotonic() - began > 3 * timeout
        assert long.result == list(range(8))
        assert [h.result for h in shorts] == [[0]] * 31
        assert finished[-1] is long
        assert threading.active_count() == baseline
