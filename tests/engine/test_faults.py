"""Fault injection: retries, speculation, blacklisting, exactly-once.

Every test here is deterministic: the :class:`~repro.faults.FaultInjector`
draws each decision from an RNG keyed by (seed, injection site), so a
given seed injects exactly the same faults on every run.
"""

from __future__ import annotations

import pytest

from repro.engine import Accumulator, EngineContext
from repro.engine.rdd import DataRDD
from repro.engine.scheduler import (
    BLACKLIST_PROBATION_TASKS,
    BLACKLIST_THRESHOLD,
    MAX_TASK_ATTEMPTS,
    RETRY_BACKOFF_BASE_S,
)
from repro.engine.shuffle import _shuffle_block_id
from repro.errors import TaskError
from repro.faults import FaultInjector
from repro.obs.analyze import render_query
from repro.obs.record import QueryRecord


def _word_counts(ctx: EngineContext) -> list:
    return sorted(
        ctx.parallelize(range(400), 8)
        .map(lambda i: (i % 13, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(seed=11, transient_failure_rate=0.3)
        b = FaultInjector(seed=11, transient_failure_rate=0.3)
        decisions_a = [
            a.fail_task(s, p, 1, 0) for s in range(4) for p in range(8)
        ]
        decisions_b = [
            b.fail_task(s, p, 1, 0) for s in range(4) for p in range(8)
        ]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)

    def test_decisions_independent_of_order(self):
        a = FaultInjector(seed=11, transient_failure_rate=0.3)
        b = FaultInjector(seed=11, transient_failure_rate=0.3)
        sites = [(s, p) for s in range(4) for p in range(8)]
        forward = {site: a.fail_task(*site, 1, 0) for site in sites}
        backward = {
            site: b.fail_task(*site, 1, 0) for site in reversed(sites)
        }
        assert forward == backward

    def test_straggler_count_per_stage(self):
        injector = FaultInjector(seed=5, stragglers_per_stage=1)
        factors = [
            injector.straggler_factor(3, p, 8, attempt=1) for p in range(8)
        ]
        assert factors.count(injector.straggler_slowdown) == 1
        # Retried attempts run at normal speed (the copy escapes the
        # slow node).
        assert all(
            injector.straggler_factor(3, p, 8, attempt=2) == 1.0
            for p in range(8)
        )

    def test_corrupt_fetch_fires_once_per_site(self):
        injector = FaultInjector(seed=2, corrupt_fetch_rate=1.0)
        assert injector.corrupt_fetch(0, 0) is True
        assert injector.corrupt_fetch(0, 0) is False  # same site: once
        assert injector.injected_corruptions == 1
        # max_corrupt_fetches caps the total across sites.
        assert injector.corrupt_fetch(0, 1) is False


class TestRetryWithBackoff:
    def test_transient_failures_retry_and_succeed(self):
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(seed=7, transient_failure_rate=0.2),
        )
        baseline = _word_counts(EngineContext(4, 2))
        assert _word_counts(ctx) == baseline
        assert ctx.metrics.value("tasks.retried") > 0
        assert ctx.last_profile.retried_tasks > 0

    def test_retry_events_and_backoff_spans_in_trace(self):
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(seed=7, transient_failure_rate=0.2),
        )
        ctx.enable_tracing()
        _word_counts(ctx)
        retries = ctx.trace.events_named("task.retry")
        assert retries
        assert all(event.category == "recovery" for event in retries)
        backoffs = [
            span
            for span in ctx.trace.spans_in_category("recovery")
            if span.name.startswith("retry backoff")
        ]
        assert backoffs
        assert all(span.duration > 0 for span in backoffs)

    def test_backoff_is_capped_exponential(self):
        # Every task fails its first three attempts: three retries, the
        # most MAX_TASK_ATTEMPTS allows, so the doubling stops at 4·base.
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(
                seed=3, transient_failure_rate=1.0,
                fail_attempts_ceiling=MAX_TASK_ATTEMPTS - 1,
            ),
        )
        ctx.enable_tracing()
        ctx.parallelize(range(40), 2).map(lambda i: (i % 3, 1)).count()
        base = RETRY_BACKOFF_BASE_S
        assert {
            (event.args["attempt"], event.args["backoff_s"])
            for event in ctx.trace.events_named("task.retry")
        } == {(1, base), (2, 2 * base), (3, 4 * base)}
        assert {
            span.args["attempt"]: span.duration
            for span in ctx.trace.spans_in_category("recovery")
            if span.name.startswith("retry backoff")
        } == pytest.approx({1: base, 2: 2 * base, 3: 4 * base})

    def test_attempts_exhausted_raises_task_error(self):
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(seed=1, flaky_workers=(0, 1, 2, 3)),
        )
        with pytest.raises(TaskError) as failure:
            ctx.parallelize(range(10), 2).count()
        assert failure.value.cause.attempt == MAX_TASK_ATTEMPTS
        assert ctx.metrics.value("tasks.launched") == MAX_TASK_ATTEMPTS
        assert ctx.metrics.value("tasks.failed") > 0


class TestBlacklisting:
    def test_flaky_worker_is_blacklisted_then_paroled(self):
        injector = FaultInjector(seed=7, flaky_workers=(1,))
        ctx = EngineContext(
            num_workers=4, cores_per_worker=2, fault_injector=injector
        )
        ctx.enable_tracing()
        baseline = _word_counts(EngineContext(4, 2))
        assert _word_counts(ctx) == baseline
        cluster = ctx.cluster
        # The third failure on worker 1 benches it for the probation.
        assert injector.injected_flaky == BLACKLIST_THRESHOLD
        assert ctx.metrics.value("workers.blacklisted") == 1
        (benched,) = ctx.trace.events_named("worker.blacklisted")
        assert benched.args == {
            "worker_id": 1, "probation_tasks": BLACKLIST_PROBATION_TASKS,
        }
        assert cluster.is_blacklisted(1)
        # Probation: after enough cluster-wide completions the worker is
        # schedulable again (and, being flaky, gets blacklisted again).
        while cluster.is_blacklisted(1):
            assert _word_counts(ctx) == baseline
        assert _word_counts(ctx) == baseline
        assert ctx.metrics.value("workers.blacklisted") == 2
        assert injector.injected_flaky == 2 * BLACKLIST_THRESHOLD
        assert cluster.live_workers(), "blacklisting must not kill workers"

    def test_blacklisted_worker_not_assigned(self):
        ctx = EngineContext(num_workers=4, cores_per_worker=2)
        ctx.cluster.blacklist_worker(2, probation_tasks=1000)
        assigned = {
            ctx.cluster.assign_worker().worker_id for __ in range(12)
        }
        assert 2 not in assigned

    def test_all_blacklisted_still_schedules(self):
        ctx = EngineContext(num_workers=2, cores_per_worker=2)
        ctx.cluster.blacklist_worker(0, probation_tasks=1000)
        ctx.cluster.blacklist_worker(1, probation_tasks=1000)
        # Progress beats probation: scheduling must not deadlock.
        assert ctx.cluster.assign_worker() is not None
        assert ctx.metrics.value("blacklist.overridden") > 0


class TestSpeculation:
    def _straggler_ctx(self) -> EngineContext:
        return EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(
                seed=7, stragglers_per_stage=1, straggler_slowdown=50.0
            ),
        )

    def test_straggler_triggers_speculative_copy(self):
        ctx = self._straggler_ctx()
        ctx.enable_tracing()
        baseline = _word_counts(EngineContext(4, 2))
        assert _word_counts(ctx) == baseline
        assert ctx.metrics.value("tasks.speculative") > 0
        launches = ctx.trace.events_named("task.speculative")
        assert launches
        profile_total = sum(
            p.speculative_tasks for p in ctx.profiles
        )
        assert profile_total > 0

    def test_speculative_copy_wins(self):
        ctx = self._straggler_ctx()
        ctx.enable_tracing()
        _word_counts(ctx)
        winners = [
            metrics
            for profile in ctx.profiles
            for stage in profile.stages
            for metrics in stage.tasks
            if metrics.speculative
        ]
        # The straggler ran slowdown x 50; the copy at normal speed wins.
        assert winners, "expected at least one speculative winner"

    def test_primary_map_output_beats_its_copy(self):
        """A map task whose backup copy is no faster keeps its own
        output: the copy wrote last, so its location is pointed back and
        reducers read the primary's worker.  Speculation runs exactly
        when the context carries a fault injector, even one that injects
        nothing."""

        def word_counts(injector):
            ctx = EngineContext(
                num_workers=4, cores_per_worker=2, fault_injector=injector
            )
            ctx.enable_tracing()
            # The last map partition is 3 000x its peers: slow on every
            # worker, so its copy takes exactly as long and loses.
            slices = [list(range(10))] * 7 + [list(range(30_000))]
            counts = (
                DataRDD(ctx, slices)
                .map(lambda i: (i % 13, 1))
                .reduce_by_key(lambda a, b: a + b)
            )
            return ctx, counts, counts.collect()

        plain, __, plain_rows = word_counts(None)
        assert plain.trace.events_named("task.speculative") == []
        assert plain.metrics.value("tasks.speculative") == 0
        ctx, counts, rows = word_counts(FaultInjector())
        assert repr(rows) == repr(plain_rows)
        (launch,) = ctx.trace.events_named("task.speculative")
        assert ctx.metrics.value("tasks.speculative") == 1
        assert launch.args["partition"] == 7
        primary = launch.args["primary_worker"]
        shuffle_id = counts.shuffle_dep.shuffle_id
        block = _shuffle_block_id(shuffle_id, 7)
        holders = {
            worker.worker_id: worker
            for worker in ctx.cluster.live_workers()
            if block in worker.blocks
        }
        assert len(holders) == 2 and primary in holders
        # Without the copy's block every read still finds its map output.
        (copy,) = [w for worker_id, w in holders.items() if worker_id != primary]
        copy.blocks.remove(block)
        manager = ctx.shuffle_manager
        assert manager.missing_maps(shuffle_id) == []
        fetched = manager.fetch(shuffle_id, list(range(counts.num_partitions)))
        assert fetched.num_rows == 7 * 10 + 13

    def test_release_frees_the_losing_copy_too(self):
        # A speculated map task leaves the same block on two workers and
        # the location names one; releasing the shuffle must free both.
        ctx = self._straggler_ctx()
        _word_counts(ctx)
        manager = ctx.shuffle_manager
        copies = sum(
            len(worker.blocks.pinned_ids())
            for worker in ctx.cluster.live_workers()
        )
        assert copies > len(manager.registered_block_ids())
        released = ctx.scheduler.release_query_shuffles(
            ctx.query.shuffle_ids
        )
        assert released == copies
        assert manager.registered_block_ids() == set()

    def test_speculation_off_without_injector(self):
        ctx = EngineContext(num_workers=4, cores_per_worker=2)
        _word_counts(ctx)
        assert ctx.metrics.value("tasks.speculative") == 0


class TestPermanentLossAndCorruption:
    def test_worker_kill_with_faults_matches_baseline(self):
        baseline = _word_counts(EngineContext(4, 2))
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(
                seed=7,
                transient_failure_rate=0.1,
                kill_worker_id=3,
                kill_after_tasks=5,
            ),
        )
        assert _word_counts(ctx) == baseline
        assert not ctx.cluster.worker(3).alive
        recovered = sum(
            p.recovered_tasks for p in ctx.profiles
        )
        assert recovered >= 0  # kill may land between stages

    def test_corrupt_fetch_forces_lineage_recovery(self):
        baseline = _word_counts(EngineContext(4, 2))
        ctx = EngineContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=FaultInjector(seed=7, corrupt_fetch_rate=1.0),
        )
        assert _word_counts(ctx) == baseline
        assert ctx.metrics.value("shuffle.corrupt_fetches") == 1
        recovered = sum(
            p.recovered_tasks for p in ctx.profiles
        )
        assert recovered > 0


class TestExactlyOnceAccumulators:
    def test_counts_unchanged_when_worker_dies_mid_stage(self):
        """The regression test of the accumulator double-counting bug."""

        def run(fault_injector=None) -> int:
            ctx = EngineContext(
                num_workers=4,
                cores_per_worker=2,
                fault_injector=fault_injector,
            )
            seen = Accumulator(0)
            (
                ctx.parallelize(range(600), 6)
                .map(lambda i: (seen.add(1), (i % 7, 1))[1])
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            return seen.value

        clean = run()
        assert clean == 600
        chaotic = run(
            FaultInjector(
                seed=7,
                transient_failure_rate=0.15,
                kill_worker_id=2,
                kill_after_tasks=3,
            )
        )
        assert chaotic == clean

    def test_driver_side_add_still_applies_immediately(self):
        acc = Accumulator(0)
        acc.add(5)
        assert acc.value == 5

    def test_pde_statistics_identical_under_faults(self):
        def stats_of(fault_injector=None):
            ctx = EngineContext(
                num_workers=4,
                cores_per_worker=2,
                fault_injector=fault_injector,
            )
            shuffled = (
                ctx.parallelize(range(500), 5)
                .map(lambda i: (i % 11, i))
                .group_by_key()
            )
            shuffled.collect()
            dep = shuffled.shuffle_dep
            return ctx.shuffle_manager.stats(dep.shuffle_id).statuses

        clean = stats_of()
        chaos = stats_of(
            FaultInjector(
                seed=7, transient_failure_rate=0.2, corrupt_fetch_rate=0.3
            )
        )
        assert len(clean) == 5
        assert chaos == clean


class TestChaoticSqlResults:
    QUERIES = (
        "SELECT COUNT(*) FROM metrics",
        "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM metrics GROUP BY g",
        "SELECT g, COUNT(*) AS n FROM metrics WHERE v > 40 GROUP BY g",
    )

    def _build(self, fault_injector=None):
        from repro import SharkContext
        from repro.datatypes import INT, STRING, Schema

        shark = SharkContext(
            num_workers=4,
            cores_per_worker=2,
            fault_injector=fault_injector,
        )
        shark.create_table(
            "metrics", Schema.of(("g", STRING), ("v", INT)), cached=True
        )
        shark.load_rows(
            "metrics",
            [(f"g{i % 9}", i % 97) for i in range(3000)],
            num_partitions=8,
        )
        return shark

    def test_benchmark_queries_identical_under_chaos(self):
        clean = self._build()
        chaos = self._build(
            FaultInjector(
                seed=7,
                transient_failure_rate=0.1,
                kill_worker_id=1,
                kill_after_tasks=15,
                stragglers_per_stage=1,
            )
        )
        for query in self.QUERIES:
            assert sorted(chaos.sql(query).rows) == sorted(
                clean.sql(query).rows
            ), query

    def test_profile_describe_surfaces_robustness_counters(self):
        chaos = self._build(
            FaultInjector(seed=7, transient_failure_rate=0.6)
        )
        chaos.engine.reset_profiles()
        chaos.sql(self.QUERIES[1])
        profiles = list(chaos.engine.profiles)
        assert sum(profile.retried_tasks for profile in profiles) > 0
        text = render_query(QueryRecord(profiles=profiles))
        assert "retried tasks (transient failures):" in text

    def test_explain_analyze_surfaces_retries(self):
        chaos = self._build(
            FaultInjector(seed=7, transient_failure_rate=0.6)
        )
        text = chaos.explain_analyze(self.QUERIES[1])
        assert "retried tasks (transient failures):" in text


class TestRecoveryTailFailure:
    def test_exhausted_recovery_closes_stage_span_with_error(self, ctx):
        """The recovery-tail bugfix: a stage that cannot materialize must
        close its span with an error status and count tasks.failed."""
        from repro.engine.scheduler import MAX_RECOVERY_ROUNDS
        from repro.errors import EngineError

        ctx.enable_tracing()
        rdd = ctx.parallelize(range(100), 4).map(lambda i: (i % 5, 1))
        shuffled = rdd.reduce_by_key(lambda a, b: a + b)
        dep = shuffled.shuffle_dep
        # Sabotage: report every map output as perpetually missing.
        manager = ctx.shuffle_manager
        original = manager.missing_maps
        manager.missing_maps = lambda shuffle_id: list(range(4))
        try:
            with pytest.raises(EngineError, match="recovery rounds"):
                shuffled.collect()
        finally:
            manager.missing_maps = original
        assert ctx.metrics.value("stages.failed") > 0
        assert ctx.metrics.value("tasks.failed") > 0
        error_spans = [
            span
            for span in ctx.trace.spans_in_category("stage")
            if span.args.get("status") == "error"
        ]
        assert error_spans
        assert MAX_RECOVERY_ROUNDS >= 1
