"""DAG scheduler: stages, tasks, and lineage-based fault recovery.

The scheduler turns an RDD graph into stages split at shuffle boundaries
(Section 2.4) and runs each stage's tasks on virtual workers; a job that
reads a :class:`~repro.engine.rdd.DriverRDD` through narrow operators
alone finishes on the driver, from the map outputs it fetches itself (a
global aggregate's one bucket, or a GROUP BY that PDE sized to one
reducer), with no reduce task.  Its recovery
behaviour implements the paper's fault-tolerance guarantees (Section 2.3):

* a fetch of lost map output raises ``FetchFailedError``; the scheduler
  re-runs *only the lost map tasks* (on other workers) and retries — the
  query never restarts;
* recovery cascades: if recomputing a map task needs data from an earlier
  shuffle that was also lost, that stage's lost tasks are recomputed first;
* recovered partitions spread across all live workers (parallel recovery);
* shuffle outputs that already exist are *not* recomputed — a stage whose
  map outputs are all present is skipped, which is also what lets PDE
  pre-run the map side of a shuffle and reuse it (Section 3.1).

Layered on top of lineage recovery is per-attempt robustness (Section 7's
straggler/failure discussion), bounded by the module constants below:

* **retry with backoff** — a :class:`~repro.errors.TransientTaskFailure`
  (from the fault-injection harness or a flaky worker) retries the task on
  a different worker after a capped exponential *simulated-clock* backoff,
  up to ``MAX_TASK_ATTEMPTS``; this is per-attempt and distinct from
  lineage-recovery rounds, which re-run tasks whose *output* was lost;
* **speculative execution** — when a completed task's simulated runtime
  exceeds a quantile of its stage peers, a backup copy runs on another
  worker and the faster finisher's result is kept.  It runs exactly when
  the context carries a fault injector, so a fault-free run keeps its
  exact seed behaviour;
* **worker blacklisting** — workers accumulating ``BLACKLIST_THRESHOLD``
  failures are taken out of the schedulable pool for a probation period.

Correctness under re-execution: each attempt buffers its accumulator
updates on its :class:`~repro.engine.task.TaskContext`, and the scheduler
merges only the kept attempt's buffer — exactly once per map partition
(guarded across lineage re-runs) and once per result partition — so
retries, speculation, and recovery never inflate accumulator values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.cluster.worker import Worker
from repro.columnar.batch import count_rows
from repro.engine.dependencies import (
    NarrowDependency,
    ShuffleDependency,
)
from repro.engine.memory import DRIVER_WORKER
from repro.engine.metrics import QueryProfile, StageProfile, TaskMetrics
from repro.engine.rdd import DriverRDD
from repro.engine.task import (
    TaskContext,
    pop_task_context,
    push_task_context,
)
from repro.errors import (
    EngineError,
    FetchFailedError,
    QueryLifecycleError,
    TaskError,
    TransientTaskFailure,
)
from repro.obs.clock import DRIVER_LANE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD
    from repro.engine.shuffle import MapOutputStats

#: Upper bound on recovery rounds for one job before giving up.
MAX_RECOVERY_ROUNDS = 16

#: Attempts per task (first run + retries) before the job fails.
MAX_TASK_ATTEMPTS = 4
#: First retry waits this many simulated seconds; doubles per retry.
RETRY_BACKOFF_BASE_S = 0.05
#: Ceiling on the simulated backoff delay.
RETRY_BACKOFF_CAP_S = 2.0

#: The quantile of completed stage peers' runtimes a straggler is
#: measured against (times ``SPECULATION_MULTIPLIER``).
SPECULATION_QUANTILE = 0.75
#: A task is a straggler when its runtime exceeds the
#: ``SPECULATION_QUANTILE`` of completed stage peers times this.
SPECULATION_MULTIPLIER = 1.5
#: Minimum completed peers before the quantile is trusted.
SPECULATION_MIN_PEERS = 3

#: Failures before a worker is blacklisted.
BLACKLIST_THRESHOLD = 3
#: Probation length, in cluster-wide task completions.
BLACKLIST_PROBATION_TASKS = 25

#: QueryProfile attribute -> the counter whose growth over the job it is.
_JOB_COUNTERS = {
    "evicted_blocks": "blocks.evicted",
    "evicted_bytes": "blocks.evicted.bytes",
    "memory_reserved_bytes": "memory.reserved.bytes",
    "memory_spill_events": "memory.spill.events",
    "memory_spill_bytes": "memory.spill.bytes",
}


def _folded_counters(profile: QueryProfile) -> dict[str, int]:
    """Counter -> its share of one job: what the job's kept task attempts
    did, read off their ``TaskMetrics`` and the profile's recovery counts
    (what the cost model charges).  An attempt the job threw away — a
    speculative loser, a reduce that died of a fetch failure — is in no
    profile, so it counts in none of these."""
    tasks = [task for stage in profile.stages for task in stage.tasks]
    if profile.driver_map_outputs:
        # The merge fetched the map outputs as the reduce task it
        # replaced would have: that is a shuffle read.
        tasks.append(profile.driver_task)
    return {
        "shuffle.write.bytes": sum(t.shuffle_write_bytes for t in tasks),
        "shuffle.write.records": sum(t.shuffle_write_records for t in tasks),
        "exchange.batches": sum(
            stage.num_tasks for stage in profile.stages if stage.is_shuffle_map
        ),
        "exchange.pickled_bytes": sum(
            t.shuffle_write_pickled_bytes for t in tasks
        ),
        "shuffle.read.bytes": sum(t.shuffle_read_bytes for t in tasks),
        "batch.rows": sum(t.batch_rows for t in tasks),
        "tasks.recovered": profile.recovered_tasks,
        "tasks.retried": profile.retried_tasks,
        "tasks.speculative": profile.speculative_tasks,
    }


def _driver_source(rdd: "RDD") -> Optional[DriverRDD]:
    """The one DriverRDD a job over ``rdd`` reads, when it reads nothing
    else and only through narrow operators, none cached (a cached block
    lives on a worker): a job the driver can finish.  None otherwise."""
    source = None
    stack = [rdd]
    while stack:
        node = stack.pop()
        if node.is_cached or not node.dependencies:
            return None
        if isinstance(node, DriverRDD):
            if source not in (None, node):
                return None
            source = node
            continue
        for dep in node.dependencies:
            if not isinstance(dep, NarrowDependency):
                return None
            stack.append(dep.rdd)
    return source


@dataclass
class _Attempt:
    """One finished task attempt the scheduler may keep or discard."""

    worker_id: int
    metrics: TaskMetrics
    task_ctx: TaskContext
    result: Any
    records_out: int
    #: Simulated runtime (None when nothing downstream needs durations).
    seconds: Optional[float] = None


class Stage:
    """A set of independent tasks: map side of one shuffle, or the final
    result computation."""

    def __init__(
        self,
        stage_id: int,
        rdd: "RDD",
        shuffle_dep: Optional[ShuffleDependency] = None,
    ):
        self.stage_id = stage_id
        self.rdd = rdd
        self.shuffle_dep = shuffle_dep
        self.parents: list["Stage"] = []

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None

    @property
    def num_partitions(self) -> int:
        return self.rdd.num_partitions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "shuffle-map" if self.is_shuffle_map else "result"
        return f"Stage({self.stage_id}, {kind}, rdd={self.rdd.name})"


class DAGScheduler:
    """Builds stages from lineage and executes them with recovery."""

    def __init__(self, ctx: "EngineContext"):
        self._ctx = ctx
        self._next_stage_id = 0
        self._next_job_id = 0
        #: shuffle_id -> Stage, shared across jobs so PDE pre-shuffles and
        #: reused cached plans skip already-materialized stages.
        self._shuffle_stages: dict[int, Stage] = {}
        #: (tenant, worker_id) -> failures since its last blacklisting.
        #: Attribution is per tenant (None outside lifecycle queries) so
        #: one tenant's poison query cannot blacklist workers out from
        #: under everybody else's healthy traffic.
        self._worker_failures: dict[tuple[Optional[str], int], int] = {}
        #: (shuffle_id, map_partition) whose accumulator buffer was merged
        #: — lineage re-runs of a map task must not merge again.
        self._merged_map_acc: set[tuple[int, int]] = set()
        #: stage_id -> kept-attempt simulated durations (speculation peers).
        self._stage_durations: dict[int, list[float]] = {}
        #: What a driver-side TaskContext runs on: its reservations land
        #: on the driver's ledger.
        self._driver = Worker(DRIVER_WORKER, cores=1)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[list], object],
        partitions: Optional[list[int]] = None,
    ) -> list:
        """Compute ``func(partition_data)`` for each requested partition:
        as the tasks of one result stage or — when ``rdd`` reads one
        :class:`~repro.engine.rdd.DriverRDD` through narrow operators —
        on the driver (:meth:`_run_on_driver`)."""
        if partitions is None:
            partitions = list(range(rdd.num_partitions))
        source = _driver_source(rdd)
        with self._job(
            result_job=True, rdd=rdd.name, partitions=len(partitions)
        ) as profile:
            if source is not None:
                return self._run_on_driver(
                    rdd, func, partitions, source, profile
                )
            return self._run_result_stage(rdd, partitions, profile, func)

    def _run_result_stage(
        self,
        rdd: "RDD",
        partitions: list[int],
        profile: QueryProfile,
        func: Callable[[list], object],
    ) -> list:
        """Run ``partitions`` of ``rdd`` as one result stage, its parent
        stages first; returns ``func`` of each."""
        tracer = self._ctx.tracer
        final_stage = Stage(self._new_stage_id(), rdd)
        final_stage.parents = self._parent_stages(rdd)
        self._ensure_parents(final_stage, profile)

        stage_profile = self._stage_profile(profile, final_stage)
        stage_span = tracer.begin_span(
            f"stage {final_stage.stage_id}",
            "stage",
            rdd=rdd.name,
            kind="result",
            tasks=len(partitions),
        )
        tracer.metrics.inc("stages.run")
        try:
            return [
                self._run_with_recovery(
                    final_stage, partition, profile, stage_profile, func
                )
                for partition in partitions
            ]
        except QueryLifecycleError:
            tracer.end_span(stage_span, status="cancelled")
            stage_span = None
            raise
        finally:
            tracer.end_span(stage_span)
            # A result stage dies with its job; its speculation
            # peers have no later reader.
            self._stage_durations.pop(final_stage.stage_id, None)

    def _run_on_driver(
        self,
        rdd: "RDD",
        func: Callable[[list], object],
        partitions: list[int],
        source: DriverRDD,
        profile: QueryProfile,
    ) -> list:
        """The driver merge: ``rdd``'s requested partitions computed on
        the driver from ``source``'s one partition.  The map stage
        ``source`` reads runs first, unless its outputs exist (a GROUP
        BY's, which PDE's pre-shuffle wrote); the driver then fetches
        them as a reduce task would, and a lost one is recovered by
        lineage before it merges again.  The work is priced with no task
        launch, on the driver lane."""
        tracer = self._ctx.tracer
        (parent,) = self._parent_stages(source)
        self._ensure_shuffle_stage(parent, profile)
        results, metrics = self._recovering(
            lambda attempt: self._compute_on_driver(rdd, func, partitions),
            profile, -1, 0, "the driver merge",
        )
        profile.driver_map_outputs = parent.num_partitions
        profile.driver_merge = asdict(metrics)
        seconds = profile.driver_merge_seconds(tracer.engine, tracer.hardware)
        self._ctx.query.charged_seconds += seconds
        # After the job's last task: the frontier.
        start, end = tracer.clock.advance_lane(
            DRIVER_LANE, seconds, tracer.clock.now()
        )
        tracer.record_span(
            "driver merge",
            "driver",
            DRIVER_LANE,
            start,
            end,
            map_outputs=parent.num_partitions,
            records=metrics.records_in,
            bytes=metrics.shuffle_read_bytes,
        )
        return results

    def _compute_on_driver(
        self,
        rdd: "RDD",
        func: Callable[[list], object],
        partitions: list[int],
    ) -> tuple[list, TaskMetrics]:
        """``func`` of ``rdd``'s ``partitions``, computed on the driver as
        a task would compute them: its accumulator updates apply once it
        succeeds, and a user function's failure is a :class:`TaskError`.
        Returns the results and the driver's metrics."""
        metrics = TaskMetrics(worker_id=DRIVER_WORKER)

        def merge(task_ctx: TaskContext) -> list:
            results = []
            for partition in partitions:
                records = rdd.iterator(partition, task_ctx)
                metrics.records_out += count_rows(records)
                results.append(func(records))
            return results

        results, task_ctx = self._run_task_body(
            merge, -1, 0, self._driver, metrics
        )
        for accumulator, delta in task_ctx.acc_updates:
            accumulator.apply(delta)
        return results, metrics

    def _run_task_body(
        self,
        body: Callable[[TaskContext], Any],
        stage_id: int,
        partition: int,
        worker: Worker,
        metrics: TaskMetrics,
        **task_args,
    ) -> tuple[Any, TaskContext]:
        """Run ``body`` as every task runs, an attempt and the driver
        merge alike: in a :class:`TaskContext` on the engine's shuffle
        manager, cache tracker and memory ledger, observing the running
        query's cancel token, pushed for the call.  An engine error
        passes through; any other exception is the user code's and
        becomes a :class:`TaskError`.  Every exit pops the context and
        releases its execution memory.  Returns ``body``'s value and the
        context, whose accumulator updates the caller applies."""
        ctx = self._ctx
        task_ctx = TaskContext(
            stage_id=stage_id,
            partition=partition,
            worker=worker,
            shuffle_manager=ctx.shuffle_manager,
            cache_tracker=ctx.cache_tracker,
            metrics=metrics,
            cancel_token=ctx.query.token,
            accountant=ctx.memory,
            **task_args,
        )
        push_task_context(task_ctx)
        try:
            return body(task_ctx), task_ctx
        except EngineError:
            raise
        except Exception as exc:
            raise TaskError(stage_id, partition, exc) from exc
        finally:
            pop_task_context(task_ctx)
            # Drain the task's execution-pool reservations whether it
            # succeeded, failed, or was cancelled — the ledger-balances-
            # to-zero invariant lives or dies right here.
            task_ctx.release_task_memory()

    def materialize_shuffle(self, dep: ShuffleDependency) -> "MapOutputStats":
        """PDE hook: run the map side of one shuffle now and return its
        statistics, without planning anything downstream (Section 3.1)."""
        self._ctx.tracer.metrics.inc("pde.pre_shuffles")
        with self._job(
            result_job=False, kind="pde-pre-shuffle", shuffle_id=dep.shuffle_id
        ) as profile:
            stage = self._stage_for_shuffle(dep)
            self._ensure_shuffle_stage(stage, profile)
        return self._ctx.shuffle_manager.stats(dep.shuffle_id)

    def cut_runs(self, dep: ShuffleDependency) -> None:
        """Cut a sort exchange's runs at the bounds it just resolved.  Its
        pre-shuffle job — the last one its query ran — has ended, so the
        writes the cut accounts to that job's kept map tasks are folded
        here."""
        profile = self._ctx.query.profiles[-1]
        before = _folded_counters(profile)
        self._ctx.shuffle_manager.cut_runs(dep)
        self._fold(profile, before)

    def _fold(
        self, profile: QueryProfile, before: Optional[dict] = None
    ) -> None:
        """Add a job's share of the folded counters (less ``before``, what
        was folded of it already); a counter is listed once non-zero."""
        counters = self._ctx.tracer.metrics
        for name, total in _folded_counters(profile).items():
            grown = total - (before[name] if before else 0)
            if grown:
                counters.inc(name, grown)

    @contextmanager
    def _job(self, result_job: bool, **span_args):
        """The frame of one job, of either kind: its id, its span, its
        profile — yielded to the body, then completed with the job's
        share of the eviction, reservation and spill counters, folded
        into the counters that total its kept attempts, and appended to
        the running query's scope, even when it failed or was cancelled.
        A result job's span
        also ends with its recovered-task count and ok/cancelled status;
        a pre-shuffle's never did."""
        job_id = self._next_job_id
        self._next_job_id += 1
        profile = QueryProfile(job_id=job_id)
        tracer = self._ctx.tracer
        value = tracer.metrics.value
        tracer.metrics.inc("jobs.submitted")
        before = {name: value(name) for name in _JOB_COUNTERS.values()}
        job_span = tracer.begin_span(f"job {job_id}", "job", **span_args)
        status = "ok"
        try:
            yield profile
        except QueryLifecycleError:
            status = "cancelled"
            raise
        finally:
            for attribute, name in _JOB_COUNTERS.items():
                setattr(profile, attribute, int(value(name) - before[name]))
            profile.memory_peak_bytes = int(self._ctx.memory.peak_bytes())
            self._fold(profile)
            end_args = {"stages": profile.num_stages}
            if result_job:
                end_args.update(
                    recovered_tasks=profile.recovered_tasks, status=status
                )
            tracer.end_span(job_span, **end_args)
            self._ctx.query.profiles.append(profile)

    def release_query_shuffles(self, shuffle_ids) -> int:
        """Forget a finished query's shuffles entirely; returns blocks
        freed.

        Called by :meth:`~repro.engine.query.QueryScope.close` on every
        exit of a query: its map outputs are dropped from the workers
        (they are pinned, so nothing else would ever reclaim them), its
        stages leave the reusable-stage cache, its speculation peer
        durations are forgotten, and its exactly-once accumulator guards
        are cleared so a resubmission of the same computation merges
        accumulator buffers afresh.
        """
        released = 0
        for shuffle_id in sorted(shuffle_ids):
            stage = self._shuffle_stages.pop(shuffle_id, None)
            if stage is not None:
                self._stage_durations.pop(stage.stage_id, None)
            released += self._ctx.shuffle_manager.release_shuffle(shuffle_id)
        if shuffle_ids:
            self._merged_map_acc = {
                key for key in self._merged_map_acc
                if key[0] not in shuffle_ids
            }
        return released

    # ------------------------------------------------------------------
    # Stage graph construction
    # ------------------------------------------------------------------
    def _new_stage_id(self) -> int:
        stage_id = self._next_stage_id
        self._next_stage_id += 1
        return stage_id

    def _stage_for_shuffle(self, dep: ShuffleDependency) -> Stage:
        stage = self._shuffle_stages.get(dep.shuffle_id)
        if stage is None:
            stage = Stage(self._new_stage_id(), dep.rdd, shuffle_dep=dep)
            self._shuffle_stages[dep.shuffle_id] = stage
            stage.parents = self._parent_stages(dep.rdd)
        return stage

    def _parent_stages(self, rdd: "RDD") -> list[Stage]:
        """Shuffle stages this RDD depends on through narrow chains."""
        parents: list[Stage] = []
        seen: set[int] = set()
        stack = [rdd]
        visited: set[int] = set()
        while stack:
            current = stack.pop()
            if current.id in visited:
                continue
            visited.add(current.id)
            for dep in current.dependencies:
                if isinstance(dep, ShuffleDependency):
                    if dep.shuffle_id not in seen:
                        seen.add(dep.shuffle_id)
                        parents.append(self._stage_for_shuffle(dep))
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.rdd)
        return parents

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def _ensure_parents(self, stage: Stage, profile: QueryProfile) -> None:
        for parent in stage.parents:
            self._ensure_shuffle_stage(parent, profile)

    def _ensure_shuffle_stage(self, stage: Stage, profile: QueryProfile) -> None:
        """Make every map output of this shuffle available, recursively."""
        dep = stage.shuffle_dep
        manager = self._ctx.shuffle_manager
        if manager.register(dep, stage.num_partitions):
            # The query that registers a shuffle first owns it and
            # releases its map outputs when its scope closes.
            self._ctx.query.shuffle_ids.add(dep.shuffle_id)
        stage_profile = self._stage_profile(profile, stage)
        tracer = self._ctx.tracer
        stage_span = None
        status = "ok"

        try:
            for round_number in range(MAX_RECOVERY_ROUNDS):
                missing = manager.missing_maps(dep.shuffle_id)
                if not missing:
                    if stage_span is None:
                        tracer.metrics.inc("stages.skipped")
                    return
                if stage_span is None:
                    stage_span = tracer.begin_span(
                        f"stage {stage.stage_id}",
                        "stage",
                        rdd=stage.rdd.name,
                        kind="shuffle-map",
                        shuffle_id=dep.shuffle_id,
                        tasks=len(missing),
                    )
                    tracer.metrics.inc("stages.run")
                if round_number > 0:
                    profile.recovered_tasks += len(missing)
                    tracer.instant(
                        "lineage.recovery",
                        "recovery",
                        stage_id=stage.stage_id,
                        shuffle_id=dep.shuffle_id,
                        lost_maps=len(missing),
                        round=round_number,
                    )
                self._ensure_parents(stage, profile)
                for partition in missing:
                    try:
                        self._run_resilient_task(
                            stage,
                            partition,
                            stage_profile,
                            func=None,
                            kind="shuffle-map",
                            recovery=round_number > 0,
                            profile=profile,
                        )
                    except FetchFailedError:
                        # An ancestor shuffle lost data while we were
                        # running; loop around, re-ensure parents, retry
                        # what's missing.
                        break
            # Recovery rounds exhausted with map outputs still missing:
            # record the failure so traces don't show a perpetually-open,
            # apparently-successful stage.
            status = "error"
            still_missing = manager.missing_maps(dep.shuffle_id)
            tracer.metrics.inc("tasks.failed", max(len(still_missing), 1))
            raise EngineError(
                f"stage {stage.stage_id} failed to materialize after "
                f"{MAX_RECOVERY_ROUNDS} recovery rounds "
                f"({len(still_missing)} map outputs still missing)"
            )
        except QueryLifecycleError:
            # Cancellation/deadline is not a stage failure: the span ends
            # with a distinct status and no stages.failed increment.
            status = "cancelled"
            raise
        except EngineError:
            status = "error"
            raise
        finally:
            if status == "error":
                tracer.metrics.inc("stages.failed")
                tracer.end_span(stage_span, status="error")
            elif status == "cancelled":
                tracer.end_span(stage_span, status="cancelled")
            else:
                tracer.end_span(stage_span)

    def _run_with_recovery(
        self,
        stage: Stage,
        partition: int,
        profile: QueryProfile,
        stage_profile: StageProfile,
        func: Callable[[list], object],
    ) -> object:
        """Run one result task, recovering lost ancestor shuffles on demand."""
        return self._recovering(
            lambda attempt: self._run_resilient_task(
                stage,
                partition,
                stage_profile,
                func=func,
                kind="result",
                prior_attempts=attempt - 1,
                profile=profile,
            ),
            profile, stage.stage_id, partition, f"result partition {partition}",
        )

    def _recovering(
        self,
        run: Callable[[int], Any],
        profile: QueryProfile,
        stage_id: int,
        partition: int,
        what: str,
    ) -> Any:
        """``run(attempt)`` until it reads every map output it fetches: a
        lost one's shuffle is recovered by lineage, then ``run`` again."""
        tracer = self._ctx.tracer
        for attempt in range(1, MAX_RECOVERY_ROUNDS + 1):
            try:
                return run(attempt)
            except FetchFailedError as failure:
                profile.recovered_tasks += 1
                tracer.instant(
                    "task.reexecution",
                    "recovery",
                    stage_id=stage_id,
                    partition=partition,
                    shuffle_id=failure.shuffle_id,
                    attempt=attempt,
                )
                self._recover_shuffle(failure.shuffle_id, profile)
        tracer.metrics.inc("tasks.failed")
        raise EngineError(
            f"{what} failed after {MAX_RECOVERY_ROUNDS} recovery rounds"
        )

    # ------------------------------------------------------------------
    # Resilient task execution: retry, speculation, blacklisting
    # ------------------------------------------------------------------
    def _run_resilient_task(
        self,
        stage: Stage,
        partition: int,
        stage_profile: StageProfile,
        profile: QueryProfile,
        func: Optional[Callable[[list], object]],
        kind: str,
        recovery: bool = False,
        prior_attempts: int = 0,
    ) -> object:
        """Run one task to a kept result: retries transient failures with
        backoff, launches a speculative copy against stragglers, feeds the
        blacklist, and merges the winning attempt's accumulator buffer
        exactly once."""
        tracer = self._ctx.tracer
        excluded: set[int] = set()
        winner: Optional[_Attempt] = None
        attempts_used = 0
        last_failure: Optional[TransientTaskFailure] = None
        for attempt in range(1, MAX_TASK_ATTEMPTS + 1):
            attempts_used = attempt
            try:
                winner = self._attempt_task(
                    stage,
                    partition,
                    prior_attempts + attempt,
                    speculative=False,
                    exclude=excluded,
                    func=func,
                    kind=kind,
                    recovery=recovery,
                )
                break
            except TransientTaskFailure as failure:
                last_failure = failure
                excluded.add(failure.worker_id)
                self._note_worker_failure(failure.worker_id, profile)
                if attempt < MAX_TASK_ATTEMPTS:
                    self._retry_with_backoff(
                        stage, partition, failure, attempt, profile
                    )
        if winner is None:
            tracer.metrics.inc("tasks.failed")
            raise TaskError(stage.stage_id, partition, last_failure)

        winner = self._maybe_speculate(
            stage,
            partition,
            winner,
            excluded,
            func,
            kind,
            prior_attempts + attempts_used,
            profile,
        )
        if winner.seconds is not None:
            self._stage_durations.setdefault(stage.stage_id, []).append(
                winner.seconds
            )
            self._ctx.tracer.metrics.observe(
                "task.seconds", winner.seconds
            )
        self._merge_accumulators(stage, partition, winner, kind)
        winner.metrics.attempts = prior_attempts + attempts_used + (
            1 if winner.metrics.speculative else 0
        )
        stage_profile.tasks.append(winner.metrics)
        return winner.result

    def _attempt_task(
        self,
        stage: Stage,
        partition: int,
        attempt: int,
        speculative: bool,
        exclude: set[int],
        func: Optional[Callable[[list], object]],
        kind: str,
        recovery: bool = False,
    ) -> _Attempt:
        """Execute one attempt of a task on a freshly assigned worker."""
        ctx = self._ctx
        tracer = ctx.tracer
        if ctx.lifecycle is not None:
            # Cooperative scheduling point: observe cancellation/deadline
            # and hand the baton to another admitted query's task.  A
            # retry or speculative attempt passes through here too, so a
            # cancel issued mid-recovery stops the next attempt from ever
            # launching (the cancellation-races-retry case).
            ctx.lifecycle.checkpoint()
        query = ctx.query
        worker = ctx.cluster.assign_worker(
            preferred=stage.rdd.preferred_workers(partition),
            exclude=exclude,
        )
        tracer.metrics.inc("tasks.launched")
        injector = ctx.fault_injector
        if injector is not None:
            reason = injector.fail_task(
                stage.stage_id, partition, attempt, worker.worker_id
            )
            if reason is not None:
                raise TransientTaskFailure(
                    stage.stage_id,
                    partition,
                    worker.worker_id,
                    reason,
                    attempt,
                )
        metrics = TaskMetrics(
            stage_id=stage.stage_id,
            partition=partition,
            worker_id=worker.worker_id,
            speculative=speculative,
        )

        def run(task_ctx: TaskContext) -> tuple:
            records = stage.rdd.iterator(partition, task_ctx)
            return records, func(records) if func is not None else None

        (records, result), task_ctx = self._run_task_body(
            run, stage.stage_id, partition, worker, metrics,
            attempt=attempt, speculative=speculative,
        )
        if kind == "shuffle-map":
            ctx.shuffle_manager.write_map_output(
                stage.shuffle_dep,
                partition,
                worker.worker_id,
                stage.shuffle_dep.keyed_batch(records),
                metrics,
            )
        metrics.records_out = count_rows(records)
        vector = metrics.to_cost_vector()
        # Durations are only priced out when something consumes them: the
        # trace, the fault injector's stragglers and speculation, or the
        # deadline of a lifecycle-managed query.
        seconds: Optional[float] = None
        if tracer.enabled or injector is not None or query.token is not None:
            seconds = tracer.estimate_seconds(vector)
            if injector is not None:
                seconds *= injector.straggler_factor(
                    stage.stage_id, partition, stage.num_partitions, attempt
                )
            # Deadline accounting: every completed attempt's simulated
            # cost counts against the owning query's deadline.
            query.charged_seconds += seconds
        span_name = (
            f"map task {stage.stage_id}.{partition}"
            if kind == "shuffle-map"
            else f"result task {stage.stage_id}.{partition}"
        )
        span_args = dict(
            stage_id=stage.stage_id,
            partition=partition,
            kind=kind,
            records_out=metrics.records_out,
            attempt=attempt,
        )
        if kind == "shuffle-map":
            span_args["shuffle_write_bytes"] = metrics.shuffle_write_bytes
            span_args["recovery"] = recovery
        if speculative:
            span_args["speculative"] = True
        tracer.task_span(
            span_name,
            lane=worker.worker_id,
            vector=vector,
            seconds=seconds,
            **span_args,
        )
        if kind == "shuffle-map" and recovery:
            tracer.instant(
                "task.reexecution",
                "recovery",
                lane=worker.worker_id,
                stage_id=stage.stage_id,
                partition=partition,
                kind="shuffle-map",
            )
        ctx.cluster.task_completed(worker)
        return _Attempt(
            worker_id=worker.worker_id,
            metrics=metrics,
            task_ctx=task_ctx,
            result=result,
            records_out=metrics.records_out,
            seconds=seconds,
        )

    def _retry_with_backoff(
        self,
        stage: Stage,
        partition: int,
        failure: TransientTaskFailure,
        attempt: int,
        profile: QueryProfile,
    ) -> None:
        """Record a retry and charge its backoff delay to simulated time."""
        tracer = self._ctx.tracer
        delay = min(
            RETRY_BACKOFF_BASE_S * (2 ** (attempt - 1)), RETRY_BACKOFF_CAP_S
        )
        profile.retried_tasks += 1
        tracer.instant(
            "task.retry",
            "recovery",
            lane=failure.worker_id,
            stage_id=stage.stage_id,
            partition=partition,
            attempt=attempt,
            backoff_s=delay,
            reason=failure.reason,
        )
        # The wait occupies the failed worker's lane so traces show the
        # gap; category "recovery" keeps it out of task-overlap checks.
        tracer.task_span(
            f"retry backoff {stage.stage_id}.{partition}",
            lane=failure.worker_id,
            seconds=delay,
            category="recovery",
            stage_id=stage.stage_id,
            partition=partition,
            attempt=attempt,
        )

    def _note_worker_failure(
        self, worker_id: int, profile: QueryProfile
    ) -> None:
        """Count one failure against a worker; blacklist on threshold.

        Failures are attributed to the submitting tenant: only a single
        tenant's repeated failures on a worker trip the blacklist, so a
        multi-tenant server never punishes tenant B for tenant A's
        poison query.
        """
        scoped = (self._ctx.query.tenant, worker_id)
        count = self._worker_failures.get(scoped, 0) + 1
        self._worker_failures[scoped] = count
        if count >= BLACKLIST_THRESHOLD:
            self._worker_failures[scoped] = 0
            self._ctx.cluster.blacklist_worker(
                worker_id, BLACKLIST_PROBATION_TASKS
            )
            profile.blacklisted_workers += 1

    def _maybe_speculate(
        self,
        stage: Stage,
        partition: int,
        primary: _Attempt,
        excluded: set[int],
        func: Optional[Callable[[list], object]],
        kind: str,
        next_attempt: int,
        profile: QueryProfile,
    ) -> _Attempt:
        """Launch a backup copy when the primary looks like a straggler;
        return whichever attempt finished faster (simulated time).
        Speculation runs only under a fault injector, which also prices
        every attempt's seconds."""
        if self._ctx.fault_injector is None:
            return primary
        threshold = self._speculation_threshold(stage)
        if threshold is None or primary.seconds <= threshold:
            return primary
        profile.speculative_tasks += 1
        self._ctx.tracer.instant(
            "task.speculative",
            "recovery",
            stage_id=stage.stage_id,
            partition=partition,
            primary_worker=primary.worker_id,
            primary_seconds=primary.seconds,
            threshold=threshold,
        )
        try:
            copy = self._attempt_task(
                stage,
                partition,
                next_attempt + 1,
                speculative=True,
                exclude=excluded | {primary.worker_id},
                func=func,
                kind=kind,
            )
        except (TransientTaskFailure, FetchFailedError):
            # The backup died; the primary result stands.
            return primary
        if copy.seconds < primary.seconds:
            # The copy wins; for map tasks it also wrote last, so the
            # shuffle locations already point at its worker.
            return copy
        if kind == "shuffle-map":
            # The primary wins but the copy's write stole the location;
            # point reads back at the primary's output.
            self._ctx.shuffle_manager.repoint_map_output(
                stage.shuffle_dep.shuffle_id, partition, primary.worker_id
            )
        return primary

    def _speculation_threshold(self, stage: Stage) -> Optional[float]:
        """Straggler cutoff from completed peers, or None if too few."""
        durations = self._stage_durations.get(stage.stage_id, ())
        if len(durations) < SPECULATION_MIN_PEERS:
            return None
        ordered = sorted(durations)
        index = min(
            int(len(ordered) * SPECULATION_QUANTILE),
            len(ordered) - 1,
        )
        return ordered[index] * SPECULATION_MULTIPLIER

    def _merge_accumulators(
        self, stage: Stage, partition: int, winner: _Attempt, kind: str
    ) -> None:
        """Apply the kept attempt's buffered accumulator updates, exactly
        once per partition (lineage re-runs of a map task skip)."""
        if kind == "shuffle-map":
            key = (stage.shuffle_dep.shuffle_id, partition)
            if key in self._merged_map_acc:
                return
            self._merged_map_acc.add(key)
        for accumulator, delta in winner.task_ctx.acc_updates:
            accumulator.apply(delta)

    def _recover_shuffle(self, shuffle_id: int, profile: QueryProfile) -> None:
        stage = self._shuffle_stages.get(shuffle_id)
        if stage is None:
            raise EngineError(
                f"cannot recover unknown shuffle {shuffle_id}"
            )
        self._ensure_shuffle_stage(stage, profile)

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def _stage_profile(
        self, profile: QueryProfile, stage: Stage
    ) -> StageProfile:
        for existing in profile.stages:
            if existing.stage_id == stage.stage_id:
                return existing
        stage_profile = StageProfile(
            stage_id=stage.stage_id,
            name=stage.rdd.name,
            is_shuffle_map=stage.is_shuffle_map,
            map_side_combined=bool(
                stage.shuffle_dep is not None
                and stage.shuffle_dep.map_side_combine
            ),
        )
        profile.stages.append(stage_profile)
        return stage_profile
