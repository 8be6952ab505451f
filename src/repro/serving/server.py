"""The multi-tenant SQL server: quotas, priorities, and load shedding.

:class:`SqlServer` hosts long-lived per-tenant sessions over one
:class:`~repro.core.context.SharkContext`.  It is the robust shell
around the PR 3 lifecycle kernel:

* **Admission** — every submission is checked against the tenant's
  :class:`~repro.serving.tenants.TenantQuota` (queue cap, concurrency
  slots, simulated-seconds budget window) and rejected with a typed
  :class:`~repro.errors.TenantQuotaExceeded` carrying a retry-after
  hint priced from the observed completion drain rate.
* **Priority promotion** — accepted queries wait in per-tenant pending
  queues and are promoted into the engine in (tier, arrival) order with
  the tier's fair-share weight, so the lifecycle manager's "weighted"
  policy interleaves tasks 8:2:1 across interactive/batch/best_effort.
* **Load shedding** — a pending query whose deadline is already
  unmeetable is shed (``deadline-unmeetable``) instead of run; when the
  total backlog crosses the brownout threshold the server sheds pending
  work lowest tier first (``brownout``) and *never* sheds
  ``interactive`` while lower tiers have queued work.
* **Isolation** — the engine's circuit breaker and worker blacklist are
  scoped by the tenant attached to every promoted query, so one
  tenant's poison query cannot fail-fast or blacklist for another.

Everything runs on the simulated clock, so a server drain is
deterministic: admitted queries return byte-identical results run to
run, composing with the seeded fault injector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.engine.lifecycle import DRAIN_RATE_WINDOW, RETRY_AFTER_DEFAULT_S
from repro.errors import (
    QueryLifecycleError,
    QueryShedError,
    ReproError,
    TenantQuotaExceeded,
)
from repro.obs.record import QueryRecord
from repro.serving.tenants import (
    PRIORITY_TIERS,
    TIER_RANK,
    TenantQuota,
    TenantState,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import SharkContext
    from repro.engine.lifecycle import QueryHandle

#: Ticket states (pending/running mirror the lifecycle's, plus shed
#: happens server-side before the engine ever sees the query).
PENDING = "pending"
RUNNING = "running"
_TERMINAL = frozenset({"done", "cancelled", "deadline", "failed", "shed"})


@dataclass
class ServerConfig:
    """Knobs for the serving layer (engine knobs stay on
    :class:`~repro.engine.lifecycle.LifecycleConfig`)."""

    #: Engine admission slots the server keeps filled (the lifecycle
    #: manager's ``max_concurrent`` when the server builds it).
    engine_slots: int = 4
    #: Total pending queries (across tenants) that triggers brownout.
    brownout_enter_depth: int = 32
    #: Brownout sheds lowest-tier pending work until the backlog is back
    #: at this depth (hysteresis; must be < brownout_enter_depth).
    brownout_exit_depth: int = 16

    def __post_init__(self) -> None:
        if self.engine_slots < 1:
            raise ValueError("engine_slots must be >= 1")
        if self.brownout_exit_depth >= self.brownout_enter_depth:
            raise ValueError(
                "brownout_exit_depth must be < brownout_enter_depth"
            )


@dataclass
class ServedQuery:
    """One submission's ticket: its queue position, engine handle once
    promoted, and terminal outcome."""

    seq: int
    tenant: str
    priority: str
    name: str
    text: str
    key: str
    deadline_s: Optional[float] = None
    #: Simulated-clock instant the server accepted the query.
    enqueued_at: float = 0.0
    state: str = PENDING
    #: Engine handle, set at promotion.
    handle: Optional["QueryHandle"] = field(default=None, repr=False)
    shed_reason: Optional[str] = None
    error: Optional[BaseException] = None
    #: Simulated-clock instant the ticket went terminal.
    ended_at: float = 0.0

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL

    @property
    def result(self) -> Any:
        return self.handle.result if self.handle is not None else None

    @property
    def latency_s(self) -> float:
        """End-to-end simulated latency (enqueue to terminal)."""
        return max(self.ended_at - self.enqueued_at, 0.0)

    def describe(self) -> str:
        parts = [
            f"served {self.seq} ({self.name!r}): {self.state}",
            f"tenant {self.tenant}/{self.priority}",
        ]
        if self.done:
            parts.append(f"latency {self.latency_s:.3f}s")
        if self.shed_reason is not None:
            parts.append(f"shed: {self.shed_reason}")
        if self.error is not None:
            parts.append(f"error: {type(self.error).__name__}")
        return ", ".join(parts)


class SqlServer:
    """Long-lived multi-tenant serving over one SharkContext."""

    def __init__(
        self,
        shark: "SharkContext",
        config: Optional[ServerConfig] = None,
    ) -> None:
        from repro.engine.lifecycle import LifecycleConfig

        self.shark = shark
        self.config = config if config is not None else ServerConfig()
        self._ctx = shark.engine
        if self._ctx.lifecycle is None:
            self._ctx.enable_lifecycle(
                LifecycleConfig(
                    max_concurrent=self.config.engine_slots,
                    max_queued=self.config.engine_slots,
                    fairness="weighted",
                )
            )
        self.lifecycle = self._ctx.lifecycle
        self._ctx.serving = self
        self.tenants: dict[str, TenantState] = {}
        #: Per-tenant pending queues, arrival order.
        self._pending: dict[str, list[ServedQuery]] = {}
        #: Promoted tickets whose engine handle is not yet terminal.
        self._inflight: list[ServedQuery] = []
        #: Terminal tickets, completion order.
        self.finished: list[ServedQuery] = []
        self._next_seq = 0
        #: Simulated-clock instants of recent completions (drain rate).
        self._drain_times: list[float] = []
        self.brownout = False
        # Server-level counters (metrics mirror these; describe() is
        # self-contained).
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        self.brownouts = 0
        #: Completions served straight from the SQL result cache.
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        name: str,
        priority: str = "batch",
        quota: Optional[TenantQuota] = None,
    ) -> TenantState:
        """Create (or return) the tenant's long-lived session state."""
        existing = self.tenants.get(name)
        if existing is not None:
            return existing
        tenant = TenantState(
            name=name,
            priority=priority,
            quota=quota if quota is not None else TenantQuota(),
            window_start=self._now(),
        )
        self.tenants[name] = tenant
        self._pending[name] = []
        metrics = self._ctx.tracer.metrics
        metrics.set_gauge("server.tenants", len(self.tenants))
        self._ctx.tracer.instant(
            "tenant.registered", "serving",
            tenant=name, priority=priority, weight=tenant.weight,
        )
        return tenant

    def tenant(self, name: str) -> TenantState:
        try:
            return self.tenants[name]
        except KeyError:
            raise ReproError(f"unknown tenant {name!r}") from None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant_name: str,
        text: str,
        name: Optional[str] = None,
        deadline_s: Optional[float] = None,
        key: Optional[str] = None,
    ) -> ServedQuery:
        """Admit one SQL statement for ``tenant_name``.

        Raises :class:`~repro.errors.TenantQuotaExceeded` when the
        tenant's queue, concurrency, or budget quota is exhausted; the
        accepted ticket runs when the server is driven (:meth:`drain`).
        """
        tenant = self.tenant(tenant_name)
        metrics = self._ctx.tracer.metrics
        now = self._now()
        self.submitted += 1
        tenant.submitted += 1
        metrics.inc("server.submitted")
        pending = self._pending[tenant_name]
        # Total outstanding work is bounded by the concurrency slots
        # plus the queue cap; a zero-length queue means the slots are
        # the only capacity, so name the exhausted resource accordingly.
        outstanding = len(pending) + tenant.running
        if outstanding >= tenant.quota.max_queued + tenant.quota.max_concurrent:
            resource = (
                "concurrency" if tenant.quota.max_queued == 0 else "queue"
            )
            raise self._quota_rejection(tenant, name, resource, now)
        if tenant.budget_exhausted(now):
            raise self._quota_rejection(
                tenant, name, "budget", now,
                retry_after=tenant.budget_retry_after(now),
            )
        seq = self._next_seq
        self._next_seq += 1
        ticket = ServedQuery(
            seq=seq,
            tenant=tenant_name,
            priority=tenant.priority,
            name=name if name is not None else f"s{seq}",
            text=text,
            key=key if key is not None else text,
            deadline_s=deadline_s,
            enqueued_at=now,
        )
        pending.append(ticket)
        tenant.admitted += 1
        metrics.inc("server.enqueued")
        metrics.set_gauge("server.queue_depth", self._pending_total())
        return ticket

    def _quota_rejection(
        self,
        tenant: TenantState,
        name: Optional[str],
        resource: str,
        now: float,
        retry_after: Optional[float] = None,
    ) -> TenantQuotaExceeded:
        metrics = self._ctx.tracer.metrics
        self.rejected += 1
        tenant.rejected += 1
        metrics.inc("tenant.quota_rejected")
        if retry_after is None:
            retry_after = self._retry_after_hint(tenant)
        return TenantQuotaExceeded(
            name if name is not None else "(unnamed)",
            tenant=tenant.name,
            resource=resource,
            running=tenant.running,
            queued=len(self._pending[tenant.name]),
            retry_after_s=retry_after,
        )

    def _retry_after_hint(self, tenant: TenantState) -> float:
        """Time for the tenant's backlog to drain at the observed
        server-wide completion rate (simulated clock)."""
        waiting = tenant.running + len(self._pending[tenant.name]) + 1
        samples = self._drain_times[-DRAIN_RATE_WINDOW:]
        if len(samples) >= 2:
            elapsed = samples[-1] - samples[0]
            if elapsed > 0:
                rate = (len(samples) - 1) / elapsed
                return waiting / rate
        return RETRY_AFTER_DEFAULT_S * waiting

    # ------------------------------------------------------------------
    # Pump: shed, brownout, promote
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        self._shed_unmeetable()
        self._update_brownout()
        self._promote()

    def _shed_unmeetable(self) -> None:
        """Deadline-aware shedding: a pending query whose remaining
        deadline is already spent can never finish in time — drop it
        now instead of wasting engine work on it."""
        now = self._now()
        for queue in self._pending.values():
            for ticket in list(queue):
                if ticket.deadline_s is None:
                    continue
                if now - ticket.enqueued_at >= ticket.deadline_s:
                    self._shed(ticket, "deadline-unmeetable")

    def _update_brownout(self) -> None:
        """Server-level overload valve: past the enter threshold, shed
        pending work lowest tier first (never ``interactive``) until
        the backlog is back under the exit threshold."""
        metrics = self._ctx.tracer.metrics
        depth = self._pending_total()
        if not self.brownout:
            if depth < self.config.brownout_enter_depth:
                return
            self.brownout = True
            self.brownouts += 1
            metrics.inc("server.brownouts")
            metrics.set_gauge("server.brownout", 1)
            self._ctx.tracer.instant(
                "server.brownout.enter", "serving", queue_depth=depth
            )
        # Lowest tier first; interactive is never in shed order.
        for tier in reversed(PRIORITY_TIERS[1:]):
            if depth <= self.config.brownout_exit_depth:
                break
            for queue in self._pending.values():
                for ticket in list(queue):
                    if depth <= self.config.brownout_exit_depth:
                        break
                    if ticket.priority != tier:
                        continue
                    self._shed(ticket, "brownout")
                    depth -= 1
        if depth <= self.config.brownout_exit_depth:
            self.brownout = False
            metrics.set_gauge("server.brownout", 0)
            self._ctx.tracer.instant(
                "server.brownout.exit", "serving", queue_depth=depth
            )

    def _promote(self) -> None:
        """Move pending tickets into the engine in (tier, arrival)
        order, respecting per-tenant concurrency quotas and the global
        engine slots."""
        metrics = self._ctx.tracer.metrics
        while len(self._inflight) < self.lifecycle.config.max_concurrent:
            candidates = [
                ticket
                for tenant_name, queue in self._pending.items()
                for ticket in queue[:1]
                if self.tenants[tenant_name].running
                < self.tenants[tenant_name].quota.max_concurrent
            ]
            if not candidates:
                return
            ticket = min(
                candidates,
                key=lambda t: (TIER_RANK[t.priority], t.seq),
            )
            tenant = self.tenants[ticket.tenant]
            now = self._now()
            remaining = None
            if ticket.deadline_s is not None:
                remaining = ticket.deadline_s - (now - ticket.enqueued_at)
                if remaining <= 0:
                    self._shed(ticket, "deadline-unmeetable")
                    continue
            try:
                handle = self.lifecycle.submit(
                    self._query_fn(ticket.text),
                    name=ticket.name,
                    deadline_s=remaining,
                    key=ticket.key,
                    tenant=ticket.tenant,
                    priority=ticket.priority,
                    weight=tenant.weight,
                )
            except QueryLifecycleError as error:
                # Circuit open for this tenant's key (or the engine
                # rejected): the ticket fails typed, slot stays free.
                self._pending[ticket.tenant].remove(ticket)
                ticket.state = "failed"
                ticket.error = error
                ticket.ended_at = now
                tenant.failed += 1
                self.finished.append(ticket)
                continue
            # Re-stamp admission to the server enqueue instant so the
            # event log's started/ended span covers server queue wait.
            handle.submitted_at = ticket.enqueued_at
            self._pending[ticket.tenant].remove(ticket)
            ticket.state = RUNNING
            ticket.handle = handle
            tenant.running += 1
            self._inflight.append(ticket)
            self.admitted += 1
            metrics.inc("server.admitted")
            wait = now - ticket.enqueued_at
            metrics.observe("server.queue_wait", wait)
            metrics.observe(f"server.queue_wait.{ticket.priority}", wait)
            metrics.set_gauge("server.queue_depth", self._pending_total())

    def _query_fn(self, text: str):
        return lambda: self.shark.session.execute(text)

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------
    def _shed(self, ticket: ServedQuery, reason: str) -> None:
        metrics = self._ctx.tracer.metrics
        now = self._now()
        self._pending[ticket.tenant].remove(ticket)
        ticket.state = "shed"
        ticket.shed_reason = reason
        ticket.error = QueryShedError(ticket.name, reason)
        ticket.ended_at = now
        tenant = self.tenants[ticket.tenant]
        tenant.shed += 1
        self.shed += 1
        metrics.inc("server.shed")
        metrics.set_gauge("server.queue_depth", self._pending_total())
        self._ctx.tracer.instant(
            "query.shed", "serving",
            query=ticket.name, tenant=ticket.tenant,
            priority=ticket.priority, shed_reason=reason,
        )
        log = self._ctx.event_log
        if log is not None:
            # Never reached the engine: no scope to capture.
            log.write_query(
                QueryRecord(
                    name=ticket.name,
                    text=ticket.text,
                    status="shed",
                    error=str(ticket.error),
                    started=ticket.enqueued_at,
                    ended=now,
                    tenant=ticket.tenant,
                    priority=ticket.priority,
                    shed_reason=reason,
                )
            )
        self._record_latency(ticket)
        self.finished.append(ticket)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def drain(self) -> list[ServedQuery]:
        """Run every accepted query to a terminal state; returns the
        completion order (shed tickets included)."""
        while self._pending_total() or self._inflight:
            self._pump()
            if not self._inflight:
                if self._pending_total():  # pragma: no cover - defensive
                    raise ReproError(
                        "server stalled: pending queries but nothing "
                        "promotable (check tenant quotas)"
                    )
                break
            earliest = min(
                self._inflight, key=lambda t: t.handle.query_id
            )
            try:
                self.lifecycle.wait(earliest.handle)
            except ReproError:
                # The typed outcome lives on the handle; the sweep
                # records it on the ticket.
                pass
            self._sweep()
        return list(self.finished)

    def _sweep(self) -> None:
        """Book-keep every inflight ticket whose handle went terminal:
        release the tenant slot, charge the budget, record latency."""
        metrics = self._ctx.tracer.metrics
        now = self._now()
        for ticket in list(self._inflight):
            handle = ticket.handle
            if not handle.done:
                continue
            self._inflight.remove(ticket)
            ticket.state = handle.state
            ticket.error = handle.error
            ticket.ended_at = now
            tenant = self.tenants[ticket.tenant]
            tenant.running -= 1
            tenant.charge(handle.charged_seconds, now)
            if handle.state == "done":
                tenant.completed += 1
                self.completed += 1
                metrics.inc("server.completed")
                if getattr(handle.result, "cache_hit", False):
                    # Result came straight from the SQL result cache:
                    # attribute the saved work to the tenant.
                    tenant.cache_hits += 1
                    self.cache_hits += 1
                    metrics.inc("sqlcache.served.hits")
            else:
                tenant.failed += 1
            self._drain_times.append(now)
            if len(self._drain_times) > 4 * DRAIN_RATE_WINDOW:
                del self._drain_times[: -2 * DRAIN_RATE_WINDOW]
            self._record_latency(ticket)
            self.finished.append(ticket)

    def _record_latency(self, ticket: ServedQuery) -> None:
        metrics = self._ctx.tracer.metrics
        metrics.observe("server.latency", ticket.latency_s)
        metrics.observe(
            f"server.latency.{ticket.priority}", ticket.latency_s
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._ctx.tracer.clock.now()

    def _pending_total(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def describe(self) -> str:
        return (
            f"server: {len(self.tenants)} tenant(s), "
            f"{self.submitted} submitted, {self.admitted} admitted, "
            f"{self.completed} completed, {self.shed} shed, "
            f"{self.rejected} quota-rejected, "
            f"{self._pending_total()} pending, "
            f"{len(self._inflight)} in flight"
            + (", BROWNOUT" if self.brownout else "")
        )

    def summary_lines(self) -> list[str]:
        """The `== serving ==` section for EXPLAIN ANALYZE / .metrics."""
        lines = [self.describe()]
        for name in sorted(self.tenants):
            lines.append(self.tenants[name].describe())
        if self.brownouts:
            lines.append(
                f"brownouts: {self.brownouts} "
                f"(enter at {self.config.brownout_enter_depth} pending, "
                f"exit at {self.config.brownout_exit_depth})"
            )
        if self.cache_hits:
            # Absent with caching off, keeping those summaries stable.
            lines.append(
                f"sql cache: {self.cache_hits}/{self.completed} "
                f"completions served from the result cache"
            )
        return lines
