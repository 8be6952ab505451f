"""Tenants, priority tiers, and quotas for the multi-tenant SQL server.

A tenant is one long-lived client of the :class:`~repro.serving.server.
SqlServer`: it owns a priority tier, a fair-share weight derived from
that tier, and a :class:`TenantQuota` bounding how much of the engine it
may occupy.  Quotas are enforced at admission with typed rejections
(:class:`~repro.errors.TenantQuotaExceeded`) so a Zipfian-heavy tenant
backs off instead of starving everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Priority tiers, highest first.  The order is load-shedding order
#: reversed: brownout sheds ``best_effort`` first and *never* touches
#: ``interactive``.
INTERACTIVE = "interactive"
BATCH = "batch"
BEST_EFFORT = "best_effort"
PRIORITY_TIERS: tuple[str, ...] = (INTERACTIVE, BATCH, BEST_EFFORT)

#: Fair-share task weights per tier, fed to the lifecycle manager's
#: fair-share rule: an interactive query gets eight task slots for
#: every one a best-effort query gets.
PRIORITY_WEIGHTS: dict[str, int] = {
    INTERACTIVE: 8,
    BATCH: 2,
    BEST_EFFORT: 1,
}

#: tier -> promotion rank (lower promotes first).
TIER_RANK: dict[str, int] = {
    tier: rank for rank, tier in enumerate(PRIORITY_TIERS)
}


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits, all enforced on the simulated clock.

    ``max_concurrent`` bounds in-engine queries, ``max_queued`` bounds
    the tenant's pending queue, and ``budget_seconds`` (when set) caps
    the simulated seconds the tenant may be charged inside one
    ``window_seconds``-long accounting window.
    """

    max_concurrent: int = 2
    max_queued: int = 8
    budget_seconds: Optional[float] = None
    window_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")


@dataclass
class TenantState:
    """One registered tenant: its tier, quota, and live accounting."""

    name: str
    priority: str = BATCH
    quota: TenantQuota = field(default_factory=TenantQuota)
    #: Queries currently inside the engine (promoted, not yet terminal).
    running: int = 0
    # Cumulative outcome counts (.tenants; the server's counters sum them).
    submitted: int = 0
    #: Accepted into the tenant's pending queue.
    enqueued: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    #: Completed queries whose rows came straight from the SQL result
    #: cache (per-tenant cache-hit attribution).
    cache_hits: int = 0
    #: Simulated seconds charged across all completed queries.
    charged_seconds: float = 0.0
    #: Budget accounting window: start instant and seconds charged in it.
    window_start: float = 0.0
    window_charged: float = 0.0

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_TIERS:
            raise ValueError(
                f"unknown priority tier {self.priority!r}; "
                f"expected one of {PRIORITY_TIERS}"
            )

    @property
    def weight(self) -> int:
        return PRIORITY_WEIGHTS[self.priority]

    @property
    def rank(self) -> int:
        return TIER_RANK[self.priority]

    # -- budget window -------------------------------------------------
    def roll_window(self, now: float) -> None:
        """Advance the accounting window so ``now`` falls inside it,
        resetting the charge when a new window opens."""
        width = self.quota.window_seconds
        if now - self.window_start >= width:
            windows = int((now - self.window_start) // width)
            self.window_start += windows * width
            self.window_charged = 0.0

    def budget_exhausted(self, now: float) -> bool:
        if self.quota.budget_seconds is None:
            return False
        self.roll_window(now)
        return self.window_charged >= self.quota.budget_seconds

    def budget_retry_after(self, now: float) -> float:
        """Simulated seconds until the current window rolls over."""
        return max(
            self.window_start + self.quota.window_seconds - now, 1e-3
        )

    def charge(self, seconds: float, now: float) -> None:
        self.roll_window(now)
        self.charged_seconds += seconds
        self.window_charged += seconds

    def describe(self) -> str:
        parts = [
            f"tenant {self.name} [{self.priority}, w{self.weight}]:",
            f"{self.submitted} submitted,",
            f"{self.completed} completed,",
            f"{self.shed} shed,",
            f"{self.rejected} rejected,",
            f"{self.failed} failed,",
            f"{self.charged_seconds:.3f} sim-s charged",
        ]
        if self.cache_hits:
            # Only rendered when the caching stack served something, so
            # cache-off runs keep byte-identical describe() output.
            parts.append(f"({self.cache_hits} cache hits)")
        if self.quota.budget_seconds is not None:
            parts.append(
                f"(window {self.window_charged:.3f}/"
                f"{self.quota.budget_seconds:.3f}s)"
            )
        return " ".join(parts)
