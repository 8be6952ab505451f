"""QueryScope: what one query holds in the engine, and its one exit.

A long-lived engine keeps map outputs and build tables in worker memory
between tasks, so everything a query leaves there needs an owner that
gives it back.  ``EngineContext.query`` is that owner — the scope the
scheduler, the SQL cache and the session record on while they work:

* outside statements it is the context's *root* scope, which is never
  closed: an RDD program, a ``sql2rdd`` plan or a direct ``load_rows``
  keeps what its lineage reads for as long as the context lives;
* ``SqlSession`` opens one scope per statement
  (:meth:`EngineContext.query_scope`) and closes it on any exit;
* every :class:`~repro.engine.lifecycle.QueryHandle` carries its own,
  swapped onto the context for each slice the query runs, so concurrent
  queries never see each other's state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.engine.dependencies import ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.broadcast import Broadcast
    from repro.engine.context import EngineContext
    from repro.engine.lifecycle import CancelToken
    from repro.engine.metrics import QueryProfile
    from repro.sql.planner import ExecutionReport


class QueryScope:
    """The engine state of one query (or, for the root, of everything
    run outside a statement)."""

    def __init__(
        self,
        ctx: "EngineContext",
        token: Optional["CancelToken"] = None,
        tenant: Optional[str] = None,
    ):
        self._ctx = ctx
        #: Cancellation token of a lifecycle-managed query; None marks a
        #: plain statement or the root (nothing can cancel those).
        self.token = token
        #: Submitting tenant (worker-failure attribution), or None.
        self.tenant = tenant
        #: Profile of every job this scope ran, in order.
        self.profiles: list["QueryProfile"] = []
        #: Shuffles this scope registered first: it owns their pinned
        #: map outputs and the scheduler's stage and accumulator state.
        self.shuffle_ids: set[int] = set()
        #: The first shuffle id this scope can own; reports rebase ids
        #: on it so they do not depend on what ran before in the process.
        self.first_shuffle_id = ShuffleDependency._next_shuffle_id
        #: Broadcasts whose execution-pool charge is still live.
        self.broadcasts: list["Broadcast"] = []
        #: cache_lookup records of the SQL cache stack (event log).
        self.cache_lookups: list[dict] = []
        #: What the SQL session learned running the statement, for the
        #: query's record: the planner's ExecutionReport, the optimized
        #: plan text (kept only while an event log is open) and the
        #: number of rows returned.
        self.report: Optional["ExecutionReport"] = None
        self.plan_text: Optional[str] = None
        self.result_rows: Optional[int] = None
        #: Simulated seconds of this scope's task attempts (deadlines,
        #: tenant budgets, retry-after hints).
        self.charged_seconds = 0.0
        #: Tracer span stack of a lifecycle query, swapped in with the
        #: scope so interleaved queries' spans nest under their own.
        self.span_stack: list = []
        #: Set when a statement stores its RDD as a cached table: the
        #: table's lineage reads this scope's shuffles from then on.
        self.stored_table = False
        #: Set while a catalog-mutating statement runs in this scope: the
        #: master journal logs the statement, not the loads it makes.
        self.in_statement = False

    def release_broadcasts(self) -> int:
        """End the ledger charge of every broadcast made in this scope
        (the values stay readable); returns the bytes released."""
        released = sum(b.release_accounting() for b in self.broadcasts)
        self.broadcasts.clear()
        return released

    def close(self) -> int:
        """The one exit, whatever the outcome: release the broadcast
        charges and, unless a table's lineage now reads them, forget the
        shuffles.  Returns the map-output blocks freed."""
        self.release_broadcasts()
        if self.stored_table:
            return 0
        return self._ctx.scheduler.release_query_shuffles(self.shuffle_ids)
