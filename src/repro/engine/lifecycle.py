"""Query lifecycle: admission control, deadlines, cancellation, fair shares.

PR 2 made individual *tasks* resilient; this module makes whole *queries*
manageable.  A :class:`QueryLifecycleManager` wraps the engine with:

* **admission control** — a bounded queue over a configurable concurrency
  limit.  Submissions beyond capacity fail fast with a typed
  :class:`~repro.errors.AdmissionRejected` carrying a retry-after hint
  (backpressure, not silent queueing forever);
* **per-query deadlines** on the simulated clock — a query whose charged
  simulated seconds exceed its deadline is cancelled *mid-flight*, at the
  next task boundary, with :class:`~repro.errors.QueryDeadlineExceeded`;
* **cooperative cancellation** — :meth:`QueryHandle.cancel` arms a
  :class:`CancelToken` that the scheduler observes before every task
  launch and that in-flight attempts observe through their
  :class:`~repro.engine.task.TaskContext`.  The unwind releases the
  query's admission slot and cleans up its shuffle outputs, open tracer
  spans, and buffered accumulator updates (the recovery-tail discipline);
* **fair multi-query scheduling** — runnable tasks from concurrently
  admitted queries interleave across the shared virtual workers by
  weighted fair shares (fewest launched tasks per unit of weight first;
  the server keys the weight on the tenant's priority tier) instead of
  strict FIFO, so a short interactive query is not starved behind a
  long scan;
* a **per-query circuit breaker** — a query key whose runs repeatedly
  exhaust the engine's recovery budget fails fast with
  :class:`~repro.errors.QueryCircuitOpenError` instead of burning the
  whole retry budget again on every resubmit.  The breaker is scoped per
  ``(tenant, key)``: one tenant's poison query never fails fast another
  tenant running the same SQL.

The serving layer (:mod:`repro.serving`) builds on two hooks here:
``submit`` accepts ``tenant``/``priority``/``weight`` so admission and
fairness are tenant-aware, and retry-after hints derive from the
observed queue drain rate on the simulated clock.  Load shedding is
the server's own business: it drops tickets it has not submitted yet.

Execution model
---------------

The engine runs tasks inline and synchronously, so concurrency is
*cooperative*: an admitted query runs on a daemon thread of its own
while it lives, but a baton guarantees exactly one thread executes at
any instant.  Handoffs happen only at task boundaries (the scheduler
calls :meth:`checkpoint` before every task attempt), and the next query
to run is chosen deterministically by the fair-share rule — so a set of
concurrent queries produces byte-identical results and traces on every
run, and composes with the seeded fault injector.  The baton also keeps
the module-global task-context stack coherent, and makes "which query
is running" a plain field read (``_baton``), never a question about
threads.

Every thread, the driver's included, parks on a lock of its own used as
a binary semaphore, and a handoff releases exactly the lock of the
thread that runs next: one wake per handoff.  A query that reaches a
task boundary, or finishes, makes the driver loop's next step itself
(promote queued queries, apply the fair-share rule) and grants the pick
directly — a query that picks itself simply goes on — so the driver
wakes only when its loop is over: everything finished under
:meth:`~QueryLifecycleManager.drain`, the awaited query under
:meth:`~QueryLifecycleManager.wait`.  A finished query's thread parks
idle and runs the next query that needs one; when the driver returns
with nothing running or queued the idle threads exit, so at most
``max_concurrent`` query threads live at a time and none outlives a
drain.

What a query holds in the engine lives on its
:class:`~repro.engine.query.QueryScope`: at every handoff the granter
swaps that scope onto the context (``ctx.query``) and its span stack
onto the tracer, so concurrent queries' shuffles, broadcasts, profiles
and spans never mix, and the scope's ``close()`` gives all of it back
on any exit.

Real wall-clock time is never read; the only real-time construct is a
generous watchdog on every park that turns an accidental deadlock into
a typed error instead of a hung build.  It measures progress, not time
parked: only a whole watchdog period with no task launched and no baton
granted trips it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.query import QueryScope
from repro.errors import (
    AdmissionRejected,
    EngineError,
    QueryCancelledError,
    QueryCircuitOpenError,
    QueryDeadlineExceeded,
    QueryLifecycleError,
)
from repro.obs.record import capture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext

#: Query states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
DEADLINE = "deadline"
FAILED = "failed"

#: Terminal state -> the status its spans and event-log record carry.
_STATUS = {
    DONE: "ok",
    CANCELLED: "cancelled",
    DEADLINE: "deadline",
    FAILED: "error",
}

#: Retry-after hint per waiting query, in simulated seconds, before any
#: drain rate or completed query duration is observed (the server's too).
RETRY_AFTER_DEFAULT_S = 1.0
#: Terminal events (slot/queue-position releases) sampled for the observed
#: queue drain rate that prices retry-after hints (the server's too).
DRAIN_RATE_WINDOW = 8
#: Consecutive engine failures of one ``(tenant, key)`` before its
#: circuit opens.
CIRCUIT_FAILURE_THRESHOLD = 2
#: Query completions (any key) before an open circuit half-opens and
#: admits one trial run.
CIRCUIT_RESET_COMPLETIONS = 4
#: Completed query durations averaged into the fallback retry hint.
RECENT_SECONDS_WINDOW = 8
#: Real-time guard on baton handoffs: a cooperative-scheduling bug
#: surfaces as a typed error once this many seconds pass with no task
#: launched and no baton handed on, instead of a hung test run.  Never
#: reached in normal operation, however long a drain takes.
WATCHDOG_TIMEOUT_S = 300.0


def drain_rate_hint(
    drain_times: list[float],
    waiting: int,
    fallback: float = RETRY_AFTER_DEFAULT_S,
) -> float:
    """Simulated seconds until ``waiting`` queries drain at the rate
    ``drain_times`` spaces terminal events (each freed a slot or queue
    position); ``fallback`` seconds a query until two samples with clock
    movement exist."""
    samples = drain_times[-DRAIN_RATE_WINDOW:]
    if len(samples) >= 2:
        elapsed = samples[-1] - samples[0]
        if elapsed > 0:
            rate = (len(samples) - 1) / elapsed  # drains per sim-s
            return waiting / rate
    return fallback * waiting


def _parked_lock() -> threading.Lock:
    """A lock held from the start: a binary semaphore at zero, which a
    thread parks on until another releases it."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class _QueryThread:
    """A daemon thread that runs one admitted query at a time, parked on
    its own lock between grants."""

    __slots__ = ("lock", "handle", "thread")

    def __init__(self, manager: "QueryLifecycleManager"):
        self.lock = _parked_lock()
        #: The query it runs; None while idle, and to tell it to exit.
        self.handle: Optional[QueryHandle] = None
        self.thread = threading.Thread(
            target=manager._thread_main,
            args=(self,),
            name="lifecycle-query",
            daemon=True,
        )
        self.thread.start()


@dataclass
class LifecycleConfig:
    """The two admission bounds."""

    #: Queries allowed to run concurrently (admission slots).
    max_concurrent: int = 2
    #: Admitted-but-waiting queries beyond the slots; submissions past
    #: this bound raise :class:`~repro.errors.AdmissionRejected`.
    max_queued: int = 2


class CancelToken:
    """Shared flag a query's scheduler and in-flight tasks observe.

    ``cancel`` is one-shot: the first reason wins (a user cancel racing a
    deadline expiry keeps whichever fired first).
    """

    __slots__ = ("_handle", "cancelled", "reason")

    def __init__(self, handle: "QueryHandle"):
        self._handle = handle
        self.cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        if not self.cancelled:
            self.cancelled = True
            self.reason = reason

    def raise_if_cancelled(self) -> None:
        """Raise the typed cancellation error when the token is armed."""
        if not self.cancelled:
            return
        handle = self._handle
        if self.reason == "deadline":
            raise QueryDeadlineExceeded(
                handle.name,
                deadline_s=handle.deadline_s or 0.0,
                elapsed_s=handle.charged_seconds,
            )
        raise QueryCancelledError(handle.name, reason=self.reason or "cancelled")


@dataclass
class QueryHandle:
    """One submitted query: its state, result, and control surface."""

    query_id: int
    name: str
    key: str
    fn: Callable[[], Any]
    manager: "QueryLifecycleManager"
    deadline_s: Optional[float] = None
    #: Owning tenant (None for directly-submitted queries); scopes the
    #: circuit breaker and worker-failure attribution.
    tenant: Optional[str] = None
    #: Priority tier label (serving layer: interactive/batch/best_effort).
    priority: Optional[str] = None
    #: Fair-share weight: task slots per turn against a weight-1 query.
    weight: int = 1
    #: Simulated-clock instant this query was admitted or queued.
    submitted_at: float = 0.0
    state: str = QUEUED
    result: Any = None
    error: Optional[BaseException] = None
    #: Task attempts this query has launched (retries and speculative
    #: copies included) — the fair-share currency.
    tasks_launched: int = 0
    token: CancelToken = field(init=False)
    #: What this query holds in the engine (shuffles, broadcasts, job
    #: profiles, charged seconds, span stack); ``ctx.query`` while it
    #: runs, closed on any exit.
    scope: QueryScope = field(init=False, repr=False)
    #: The thread running this query, from its first grant to its end.
    _thread: Optional[_QueryThread] = field(default=None, repr=False)
    _span: Any = field(default=None, repr=False)
    _cancel_after_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        self.token = CancelToken(self)
        self.scope = QueryScope(
            self.manager._ctx, token=self.token, tenant=self.tenant
        )

    # -- control ------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation (takes effect at the next
        task boundary; immediate for still-queued queries)."""
        self.manager._cancel(self, reason)

    def cancel_after_tasks(self, count: int) -> "QueryHandle":
        """Arm cancellation to fire once this query has launched
        ``count`` tasks — the deterministic mid-flight cancel used by
        robustness tests and demos (mirrors FailureInjector.after_tasks)."""
        self._cancel_after_tasks = count
        return self

    def result_or_raise(self) -> Any:
        """Drive the cooperative scheduler until this query is terminal,
        then return its result or raise its typed error."""
        return self.manager.wait(self)

    # -- inspection ---------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in _STATUS

    @property
    def charged_seconds(self) -> float:
        """Simulated seconds charged to this query (sum of its task
        attempts' cost-model durations times straggler factors)."""
        return self.scope.charged_seconds

    def describe(self) -> str:
        parts = [
            f"query {self.query_id} ({self.name!r}): {self.state}",
            f"{self.tasks_launched} tasks",
            f"{self.charged_seconds:.3f} sim-s",
        ]
        if self.deadline_s is not None:
            parts.append(f"deadline {self.deadline_s:.3f}s")
        if self.tenant is not None:
            tier = f"/{self.priority}" if self.priority else ""
            parts.append(f"tenant {self.tenant}{tier}")
        if self.error is not None:
            parts.append(f"error: {type(self.error).__name__}")
        return ", ".join(parts)


class QueryLifecycleManager:
    """Admits, schedules, cancels, and cleans up after queries.

    One per :class:`~repro.engine.context.EngineContext` (created via
    ``ctx.enable_lifecycle()``).  Drive admitted queries with
    :meth:`drain` (run everything) or :meth:`wait` (run until one handle
    finishes); both must be called from the driver, never from inside a
    submitted query.
    """

    def __init__(
        self, ctx: "EngineContext", config: Optional[LifecycleConfig] = None
    ):
        self._ctx = ctx
        self.config = config if config is not None else LifecycleConfig()
        #: The query currently allowed to run (exactly one, or None when
        #: the driver holds control).
        self._baton: Optional[QueryHandle] = None
        #: The driver parks here while queries run; the step that finds
        #: its loop over releases it.
        self._driver_lock = _parked_lock()
        #: The handle the driver's wait() is for (None under drain()).
        self._waiting_for: Optional[QueryHandle] = None
        #: What finished while the driver drives, in completion order.
        self._drained: Optional[list[QueryHandle]] = None
        #: Threads of finished queries, parked until a query needs one.
        #: A thread idle past the watchdog takes itself out, so takers
        #: pop without checking first (one list op each, atomic).
        self._idle: list[_QueryThread] = []
        #: Task launches plus grants: what the watchdog calls progress.
        self._progress = 0
        #: Admitted queries holding a slot, in admission order.
        self._running: list[QueryHandle] = []
        #: Admitted queries waiting for a slot.
        self._queued: list[QueryHandle] = []
        self._next_query_id = 0
        #: (tenant, query key) -> consecutive engine failures.  Scoping
        #: per tenant keeps one tenant's poison query from opening the
        #: circuit for another tenant running the same SQL.
        self._failures: dict[tuple[Optional[str], str], int] = {}
        #: (tenant, query key) -> completion count at which the circuit
        #: half-opens.
        self._circuit_until: dict[tuple[Optional[str], str], int] = {}
        #: Charged durations of recently completed queries (the
        #: retry-hint fallback before drain-rate samples exist).
        self._recent_seconds: list[float] = []
        #: Simulated-clock instants of the last terminal events — each one
        #: released a slot or queue position, so their spacing is the
        #: observed queue drain rate behind retry-after hints.
        self._drain_times: list[float] = []
        # Lifetime tallies, read by the queries.* counters.
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.deadline_expired = 0
        self.failed = 0
        self.capacity_rejected = 0
        self.circuit_rejected = 0
        self.circuit_opened = 0
        metrics = ctx.tracer.metrics
        metrics.register_counter("queries.submitted", lambda: self.submitted)
        metrics.register_counter("queries.completed", lambda: self.completed)
        metrics.register_counter("queries.cancelled", lambda: self.cancelled)
        metrics.register_counter(
            "queries.deadline_expired", lambda: self.deadline_expired
        )
        metrics.register_counter("queries.failed", lambda: self.failed)
        metrics.register_counter(
            "queries.rejected", lambda: self.capacity_rejected
        )
        metrics.register_counter(
            "queries.circuit_rejected", lambda: self.circuit_rejected
        )
        metrics.register_counter(
            "queries.circuit_opened", lambda: self.circuit_opened
        )

    @property
    def terminal(self) -> int:
        """Queries that reached a terminal state."""
        return (
            self.completed + self.cancelled + self.deadline_expired
            + self.failed
        )

    @property
    def rejected(self) -> int:
        """Submissions refused, beyond capacity or by an open circuit."""
        return self.capacity_rejected + self.circuit_rejected

    # ------------------------------------------------------------------
    # Submission and admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[], Any],
        name: Optional[str] = None,
        deadline_s: Optional[float] = None,
        key: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        weight: int = 1,
    ) -> QueryHandle:
        """Admit ``fn`` (a zero-argument callable running engine work).

        Raises :class:`~repro.errors.AdmissionRejected` beyond capacity
        and :class:`~repro.errors.QueryCircuitOpenError` when the
        ``(tenant, key)`` circuit is open.  Nothing executes until
        :meth:`drain`/:meth:`wait`.  ``tenant``/``priority``/``weight``
        are the serving layer's hooks: the weight is the query's fair
        share and the tenant scopes failure attribution.
        """
        metrics = self._ctx.tracer.metrics
        self.submitted += 1
        query_id = self._next_query_id
        self._next_query_id += 1
        name = name if name is not None else f"q{query_id}"
        key = key if key is not None else name
        self._check_circuit(name, key, tenant)
        handle = QueryHandle(
            query_id=query_id,
            name=name,
            key=key,
            fn=fn,
            manager=self,
            deadline_s=deadline_s,
            tenant=tenant,
            priority=priority,
            weight=max(int(weight), 1),
            submitted_at=self._ctx.tracer.clock.now(),
        )
        if len(self._running) < self.config.max_concurrent:
            handle.state = RUNNING
            self._running.append(handle)
            metrics.inc("queries.admitted")
            self._ctx.tracer.instant(
                "query.admitted", "query",
                query_id=query_id, query=name,
            )
        elif len(self._queued) < self.config.max_queued:
            self._queued.append(handle)
            metrics.inc("queries.queued")
            self._ctx.tracer.instant(
                "query.queued", "query",
                query_id=query_id, query=name,
                position=len(self._queued),
            )
        else:
            self.capacity_rejected += 1
            hint = self._retry_after_hint()
            self._ctx.tracer.instant(
                "query.rejected", "query",
                query_id=query_id, query=name,
                reason="capacity", retry_after_s=hint,
            )
            raise AdmissionRejected(
                name,
                running=len(self._running),
                queued=len(self._queued),
                retry_after_s=hint,
            )
        return handle

    def _check_circuit(
        self, name: str, key: str, tenant: Optional[str]
    ) -> None:
        scoped = (tenant, key)
        half_open_at = self._circuit_until.get(scoped)
        if half_open_at is None:
            return
        if self.terminal >= half_open_at:
            # Half-open: admit one trial; success closes the circuit,
            # another failure re-opens it.
            del self._circuit_until[scoped]
            return
        self.circuit_rejected += 1
        remaining = half_open_at - self.terminal
        self._ctx.tracer.instant(
            "query.rejected", "query",
            query=name, key=key, tenant=tenant, reason="circuit-open",
            retry_after_completions=remaining,
        )
        raise QueryCircuitOpenError(
            key,
            failures=self._failures.get(scoped, 0),
            retry_after_completions=remaining,
        )

    def _retry_after_hint(self) -> float:
        """Simulated seconds until a resubmission plausibly admits: the
        time for the queued queries and this one to drain.  Before the
        drain rate is observed, priced at the average of recently
        completed query durations."""
        waiting = 1 + len(self._queued)
        recent = self._recent_seconds or [RETRY_AFTER_DEFAULT_S]
        average = sum(recent) / len(recent)
        return drain_rate_hint(self._drain_times, waiting, max(average, 1e-3))

    # ------------------------------------------------------------------
    # Driving the cooperative scheduler
    # ------------------------------------------------------------------
    def drain(self) -> list[QueryHandle]:
        """Run every admitted query to a terminal state; returns the
        handles this call finished, in completion order."""
        return self._drive("drain", None)

    def wait(self, handle: QueryHandle) -> Any:
        """Drive the scheduler (fairly — other queries keep their turns)
        until ``handle`` is terminal; return its result or raise."""
        self._drive("wait", handle)
        if handle.error is not None:
            raise handle.error
        return handle.result

    def _drive(self, op: str, target: Optional[QueryHandle]) -> list:
        """The driver loop, until ``target`` is terminal (everything is,
        when None): grant the fair-share pick and park — the
        queries take the loop's steps meanwhile.  Retires the idle
        threads if nothing is left; returns the handles that finished."""
        self._require_driver(op)
        self._waiting_for, self._drained = target, []
        ctx = self._ctx
        while not self._driver_loop_over():
            self._promote_queued()
            handle = self._pick_next()
            if handle is None:  # pragma: no cover - defensive
                if target is None:
                    break
                raise EngineError(
                    f"query {target.name!r} is {target.state} but no "
                    "query is runnable"
                )
            driver_scope = ctx.query
            driver_stack = self._grant(handle)
            try:
                # The baton passes from query to query and is clear only
                # once the step that wakes the driver clears it.  A
                # release with the baton held is stale — left by a query
                # the watchdog ended while nobody drove — and is
                # absorbed here.
                while self._baton is not None:
                    self._park(self._driver_lock, handle, "made no progress")
            finally:
                ctx.tracer.use_stack(driver_stack)
                ctx.query = driver_scope
        drained, self._waiting_for, self._drained = self._drained, None, None
        if not self._running and not self._queued:
            self._retire_idle()
        return drained

    def _driver_loop_over(self) -> bool:
        target = self._waiting_for
        if target is None:
            return not (self._running or self._queued)
        return target.done

    def _require_driver(self, op: str) -> None:
        # The driver never runs while a query holds the baton, so a
        # caller that sees one holding it is that query.
        if self._baton is not None:
            raise EngineError(
                f"cannot call {op}() from inside a running query"
            )

    def _promote_queued(self) -> None:
        while (
            self._queued
            and len(self._running) < self.config.max_concurrent
        ):
            handle = self._queued.pop(0)
            handle.state = RUNNING
            self._running.append(handle)
            self._ctx.tracer.metrics.inc("queries.admitted")
            self._ctx.tracer.instant(
                "query.admitted", "query",
                query_id=handle.query_id, query=handle.name,
                promoted=True,
            )

    def _pick_next(self) -> Optional[QueryHandle]:
        """The fair-share rule: which admitted query runs next.

        Weighted max-min fairness: the smallest launched-tasks / weight
        ratio runs next, so a weight-8 query gets eight task slots for
        every one a weight-1 query gets; ties go to the heavier weight
        (higher tier first), then to admission order.  At equal weights
        that is fewest launched tasks first.  Deterministic, so
        concurrent runs stay byte-identical."""
        return min(
            self._running,
            key=lambda handle: (
                handle.tasks_launched / handle.weight,
                -handle.weight,
                handle.query_id,
            ),
            default=None,
        )

    def _grant(self, handle: QueryHandle) -> list:
        """Hand the baton to ``handle`` and wake its thread — an idle one,
        or a new one, on its first grant.  What the engine records from
        here lands on the query's scope and its spans nest under its own
        stack, so both are swapped in; returns the span stack swapped
        out.  The caller parks next and touches nothing else."""
        ctx = self._ctx
        self._baton = handle
        self._progress += 1
        ctx.query = handle.scope
        previous = ctx.tracer.use_stack(handle.scope.span_stack)
        worker = handle._thread
        if worker is None:
            try:
                worker = self._idle.pop()
            except IndexError:
                worker = _QueryThread(self)
            worker.handle = handle
            handle._thread = worker
        worker.lock.release()
        return previous

    def _step(self, holder: Optional[QueryHandle]) -> bool:
        """Take the driver loop's next step from the thread holding the
        baton — a query at a task boundary (``holder``) or one that just
        finished (None): once the loop is over, hand control back to the
        driver; otherwise promote and pick, and grant the pick.  Returns
        False, with no switch, when the pick is ``holder``; the caller
        parks otherwise."""
        if not self._driver_loop_over():
            self._promote_queued()
            pick = self._pick_next()
            if pick is not None:
                if pick is holder:
                    return False
                self._grant(pick)
                return True
        self._baton = None
        self._driver_lock.release()
        return True

    def _retire_idle(self) -> None:
        """Wake every idle thread with no query so it exits, and join it:
        no query thread outlives a drain or pins the context."""
        while True:
            try:
                worker = self._idle.pop()
            except IndexError:
                return
            worker.lock.release()
            worker.thread.join()

    def _park(
        self, lock: threading.Lock, handle: QueryHandle, stalled: str
    ) -> None:
        """Block until ``lock`` is released.  The watchdog measures
        progress, not time parked: it raises only after a whole
        :data:`WATCHDOG_TIMEOUT_S` in which no task launched and no baton
        was granted, so a long drain, or a query the fair-share rule
        passes over for a long time, never trips it."""
        seen = self._progress
        while not lock.acquire(timeout=WATCHDOG_TIMEOUT_S):
            if self._progress == seen:
                raise EngineError(
                    f"lifecycle watchdog: query {handle.name!r} {stalled} "
                    f"in {WATCHDOG_TIMEOUT_S}s (cooperative-scheduling "
                    "deadlock?)"
                )
            seen = self._progress

    # ------------------------------------------------------------------
    # The query thread
    # ------------------------------------------------------------------
    def _thread_main(self, worker: _QueryThread) -> None:
        while True:
            if not worker.lock.acquire(timeout=WATCHDOG_TIMEOUT_S):
                # Idle that long: exit, unless a grant or a retire took
                # it out of the list first — its release is on the way.
                try:
                    self._idle.remove(worker)
                except ValueError:
                    continue
                return
            handle = worker.handle
            if handle is None:
                return
            self._run_query(handle)
            worker.handle = handle._thread = None
            # A grant that raced a watchdog-ended park left its release
            # behind; take it, so the idle park waits for the next one.
            worker.lock.acquire(blocking=False)
            # Idle before the step: the next query may take this thread.
            self._idle.append(worker)
            self._step(None)

    def _run_query(self, handle: QueryHandle) -> None:
        tracer = self._ctx.tracer
        handle._span = tracer.begin_span(
            f"query {handle.name}",
            "query",
            kind="lifecycle",
            query_id=handle.query_id,
        )
        try:
            self._observe(handle)
            handle.token.raise_if_cancelled()
            handle.result = handle.fn()
            handle.state = DONE
        except QueryDeadlineExceeded as error:
            handle.error = error
            handle.state = DEADLINE
        except QueryCancelledError as error:
            handle.error = error
            handle.state = CANCELLED
        except BaseException as error:  # noqa: BLE001 - reported via handle
            handle.error = error
            handle.state = FAILED
        finally:
            # Still holding the baton: safe to touch shared engine state.
            self._cleanup(handle)
            if handle in self._running:
                self._running.remove(handle)
            self._record_completion(handle)

    # ------------------------------------------------------------------
    # Scheduler-facing hook (called from the running query's thread)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Cooperative scheduling point, called by the scheduler before
        every task attempt: observe cancellation/deadline, then let the
        fair-share rule pick the query whose task runs next.  A no-op
        for work the driver runs itself (no query holds the baton)."""
        handle = self._baton
        if handle is None:
            return
        self._observe(handle)
        handle.token.raise_if_cancelled()
        handle.tasks_launched += 1
        self._progress += 1
        if len(self._running) > 1 or self._queued:
            if self._step(handle):
                self._park(
                    handle._thread.lock, handle,
                    "waited for the baton with no progress",
                )
            # A cancel or deadline may have been issued while another
            # query held the baton — observe before launching the task
            # (this is what makes cancellation race retries/speculation
            # safely: the next attempt never starts).
            self._observe(handle)
            handle.token.raise_if_cancelled()

    def _observe(self, handle: QueryHandle) -> None:
        armed = handle._cancel_after_tasks
        if armed is not None and handle.tasks_launched >= armed:
            handle.token.cancel("cancelled")
        if (
            handle.deadline_s is not None
            and handle.charged_seconds > handle.deadline_s
        ):
            handle.token.cancel("deadline")

    # ------------------------------------------------------------------
    # Cancellation and cleanup
    # ------------------------------------------------------------------
    def _cancel(self, handle: QueryHandle, reason: str) -> None:
        if handle.done:
            return
        if handle in self._queued:
            # Never started: terminal immediately, no cleanup needed.
            self._queued.remove(handle)
            handle.token.cancel(reason)
            handle.state = CANCELLED
            handle.error = QueryCancelledError(handle.name, reason=reason)
            self._log_record(handle)
            self._record_completion(handle)
            return
        handle.token.cancel(reason)

    def _cleanup(self, handle: QueryHandle) -> None:
        """Close the query's spans and its scope — no open spans, no
        leaked pinned blocks or broadcast charges, whatever the
        outcome."""
        tracer = self._ctx.tracer
        status = _STATUS[handle.state]
        if handle._span is not None:
            tracer.end_span(handle._span, status=status)
            handle._span = None
        # end_span pops through abandoned children, but be exhaustive:
        # anything still on this query's private stack is force-closed.
        # drain_stack works even when tracing was disabled mid-query
        # (end_span no-ops while disabled, so a loop built on it would
        # spin forever and leak the stack entries) and is idempotent.
        tracer.drain_stack(handle.scope.span_stack, status=status)
        if handle.state != DONE:
            # Post-mortem: dump the flight recorder's recent events (it
            # is live even with tracing off) keyed to this query.
            tracer.flight_dump(
                status, query=f"lifecycle-{handle.query_id}"
            )
        # Before close(): the record reads the scope's map outputs.
        self._log_record(handle)
        released = handle.scope.close()
        if released:
            tracer.instant(
                "query.shuffles_released", "query",
                query_id=handle.query_id,
                blocks=released,
            )

    def _log_record(self, handle: QueryHandle) -> None:
        """Write the query's record, captured off its scope like any
        statement's, to the open event log.  Its ``sim_seconds`` is the
        *charged* seconds deadlines and tenant budgets meter, not the
        makespan its priced stages add up to; it has no timeline,
        counters or memory rows, which are slices of context-global
        buffers that interleaved queries share."""
        log = self._ctx.event_log
        if log is None:
            return
        record = capture(
            self._ctx,
            handle.scope,
            query_id=f"lifecycle-{handle.query_id}",
            name=handle.name,
            kind="lifecycle",
            status=_STATUS[handle.state],
            error=(
                f"{type(handle.error).__name__}: {handle.error}"
                if handle.error is not None
                else None
            ),
            started=handle.submitted_at,
            tenant=handle.tenant,
            priority=handle.priority,
        )
        record.sim_seconds = handle.charged_seconds
        log.write_query(record)
        self._ctx.tracer.metrics.observe(
            "query.sim_seconds", handle.charged_seconds
        )

    def _record_completion(self, handle: QueryHandle) -> None:
        if self._drained is not None:
            self._drained.append(handle)
        # Every terminal event frees a slot or queue position: sample
        # the simulated clock for the drain rate behind retry hints.
        self._drain_times.append(self._ctx.tracer.clock.now())
        del self._drain_times[:-DRAIN_RATE_WINDOW]
        scoped = (handle.tenant, handle.key)
        if handle.state == DONE:
            self.completed += 1
            self._recent_seconds.append(handle.charged_seconds)
            del self._recent_seconds[:-RECENT_SECONDS_WINDOW]
            self._failures.pop(scoped, None)
            self._circuit_until.pop(scoped, None)
        elif handle.state == DEADLINE:
            self.deadline_expired += 1
            self._ctx.tracer.instant(
                "query.deadline", "query",
                query_id=handle.query_id, query=handle.name,
                deadline_s=handle.deadline_s,
                elapsed_s=handle.charged_seconds,
            )
        elif handle.state == CANCELLED:
            self.cancelled += 1
            self._ctx.tracer.instant(
                "query.cancelled", "query",
                query_id=handle.query_id, query=handle.name,
                tasks_launched=handle.tasks_launched,
            )
        elif handle.state == FAILED:
            self.failed += 1
            if isinstance(handle.error, EngineError) and not isinstance(
                handle.error, QueryLifecycleError
            ):
                count = self._failures.get(scoped, 0) + 1
                self._failures[scoped] = count
                if count >= CIRCUIT_FAILURE_THRESHOLD:
                    self.circuit_opened += 1
                    self._circuit_until[scoped] = (
                        self.terminal + CIRCUIT_RESET_COMPLETIONS
                    )
                    self._ctx.tracer.instant(
                        "query.circuit_open", "query",
                        key=handle.key, tenant=handle.tenant,
                        failures=count,
                        reset_after_completions=CIRCUIT_RESET_COMPLETIONS,
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"lifecycle: {self.submitted} submitted, "
            f"{self.completed} completed, {self.cancelled} cancelled, "
            f"{self.deadline_expired} deadline-expired, "
            f"{self.failed} failed, {self.rejected} rejected, "
            f"{self.circuit_opened} circuit-opened"
        )

    def admission_ledger(self) -> dict:
        """Live admission accounting for ledger-zero assertions: every
        submission must be running, queued, terminal, or rejected —
        slots never leak, on any terminal path."""
        terminal = self.terminal
        return {
            "running": len(self._running),
            "queued": len(self._queued),
            "terminal": terminal,
            "rejected": self.rejected,
            "submitted": self.submitted,
            "leaked": self.submitted
            - terminal
            - self.rejected
            - len(self._running)
            - len(self._queued),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryLifecycleManager(running={len(self._running)}, "
            f"queued={len(self._queued)}, finished={self.terminal})"
        )
