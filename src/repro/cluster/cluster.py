"""The virtual cluster: worker membership, placement, failure injection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.cluster.worker import BlockStore, Worker
from repro.errors import NoLiveWorkersError
from repro.obs import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.memory import MemoryAccountant


@dataclass
class FailureInjector:
    """Kills a worker after a given number of completed tasks.

    Registered on a :class:`VirtualCluster`; the cluster consults it after
    every task completion, which is how the Figure 9 experiment kills a node
    mid-query.  ``worker_id=None`` kills the worker that completed the
    triggering task.  Injectors fire once and disarm.
    """

    worker_id: int | None
    after_tasks: int
    fired: bool = False

    def should_fire(self, total_tasks_completed: int) -> bool:
        return not self.fired and total_tasks_completed >= self.after_tasks


class VirtualCluster:
    """A set of virtual workers plus placement and failure machinery.

    The cluster knows nothing about RDDs: it stores opaque blocks on workers
    and assigns tasks to live workers.  The engine's scheduler layers
    lineage and recovery on top.
    """

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: int = 8,
        memory_per_worker_bytes: int | None = None,
        tracer: Tracer | None = None,
        accountant: "MemoryAccountant | None" = None,
    ):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.cores_per_worker = cores_per_worker
        self.memory_per_worker_bytes = memory_per_worker_bytes
        #: Shared with the owning EngineContext; a private disabled
        #: tracer when the cluster is constructed standalone (tests).
        self.tracer = tracer if tracer is not None else Tracer()
        #: Unified memory ledger; a private one when standalone so block
        #: stores always account their bytes somewhere.
        if accountant is None:
            # Imported lazily: repro.engine.context imports this module.
            from repro.engine.memory import MemoryAccountant

            accountant = MemoryAccountant(
                tracer=self.tracer, capacity_bytes=memory_per_worker_bytes
            )
        self.accountant = accountant
        self.workers: list[Worker] = []
        for __ in range(num_workers):
            self._join(cores_per_worker)
        self._next_assignment = 0
        self.total_tasks_completed = 0
        self._failure_injectors: list[FailureInjector] = []
        self._on_worker_killed: list[Callable[[int], None]] = []
        #: worker_id -> total_tasks_completed count at which the worker's
        #: probation ends and it becomes schedulable again.
        self._blacklist: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def live_workers(self) -> list[Worker]:
        return [worker for worker in self.workers if worker.alive]

    def worker(self, worker_id: int) -> Worker:
        return self.workers[worker_id]

    def add_worker(self, cores: int | None = None) -> Worker:
        """Elasticity: a new node joins and becomes schedulable
        immediately, with the cluster's cores per worker by default."""
        if cores is None:
            cores = self.cores_per_worker
        worker = self._join(cores)
        self.tracer.metrics.inc("workers.added")
        self.tracer.instant(
            "worker.added", "cluster", lane=worker.worker_id, cores=cores
        )
        return worker

    def _join(self, cores: int) -> Worker:
        """Append a worker whose lane on the clock has ``cores`` slots."""
        worker_id = len(self.workers)
        worker = Worker(
            worker_id=worker_id,
            cores=cores,
            blocks=BlockStore(
                capacity_bytes=self.memory_per_worker_bytes,
                tracer=self.tracer,
                accountant=self.accountant,
                worker_id=worker_id,
            ),
        )
        self.workers.append(worker)
        self.tracer.clock.set_cores(worker_id, cores)
        return worker

    def kill_worker(self, worker_id: int) -> None:
        """Kill a worker, dropping all of its blocks."""
        worker = self.workers[worker_id]
        if not worker.alive:
            return
        lost_blocks = len(worker.blocks)
        worker.kill()
        self.tracer.metrics.inc("workers.killed")
        self.tracer.instant(
            "worker.kill",
            "cluster",
            lane=worker_id,
            worker_id=worker_id,
            lost_blocks=lost_blocks,
            tasks_run=worker.tasks_run,
        )
        for callback in self._on_worker_killed:
            callback(worker_id)
        if not self.live_workers():
            raise NoLiveWorkersError(
                f"killed worker {worker_id}; no live workers remain"
            )

    def restart_worker(self, worker_id: int) -> None:
        self.workers[worker_id].restart()
        self.tracer.metrics.inc("workers.restarted")
        self.tracer.instant(
            "worker.restart", "cluster", lane=worker_id, worker_id=worker_id
        )

    def on_worker_killed(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked with the worker id on every kill."""
        self._on_worker_killed.append(callback)

    # ------------------------------------------------------------------
    # Blacklisting with probation
    # ------------------------------------------------------------------
    def blacklist_worker(self, worker_id: int, probation_tasks: int) -> None:
        """Stop scheduling on a worker until ``probation_tasks`` more tasks
        complete cluster-wide, after which it is eligible again."""
        self._blacklist[worker_id] = (
            self.total_tasks_completed + probation_tasks
        )
        self.tracer.metrics.inc("workers.blacklisted")
        self.tracer.instant(
            "worker.blacklisted",
            "cluster",
            lane=worker_id,
            worker_id=worker_id,
            probation_tasks=probation_tasks,
        )

    def is_blacklisted(self, worker_id: int) -> bool:
        expiry = self._blacklist.get(worker_id)
        if expiry is None:
            return False
        if self.total_tasks_completed >= expiry:
            # Probation served: the worker rejoins the schedulable pool.
            del self._blacklist[worker_id]
            self.tracer.instant(
                "worker.probation",
                "cluster",
                lane=worker_id,
                worker_id=worker_id,
            )
            return False
        return True

    def blacklisted_workers(self) -> list[int]:
        return [wid for wid in list(self._blacklist) if self.is_blacklisted(wid)]

    # ------------------------------------------------------------------
    # Task placement
    # ------------------------------------------------------------------
    def assign_worker(
        self, preferred: Iterable[int] = (), exclude: Iterable[int] = ()
    ) -> Worker:
        """Pick a worker for a task.

        The first eligible preferred worker (one holding the task's
        cached block) runs it unless an eligible worker's lane has been
        busy less (see :meth:`_least_busy`); otherwise round-robin over
        the eligible live workers.  ``exclude`` lists workers a retry or
        speculative copy must avoid.  Blacklisted and excluded workers
        are only used when no other live worker exists (progress beats
        probation).
        """
        excluded = set(exclude)
        for worker_id in preferred:
            if 0 <= worker_id < len(self.workers) and self._eligible(
                self.workers[worker_id], excluded
            ):
                return self._least_busy(self.workers[worker_id], excluded)
        live = self.live_workers()
        if not live:
            raise NoLiveWorkersError("no live workers to assign a task to")
        pool = [worker for worker in live if self._eligible(worker, excluded)]
        if not pool:
            # Everything eligible is excluded or on probation; schedule
            # anyway rather than deadlock.
            pool = live
            self.tracer.metrics.inc("blacklist.overridden")
        worker = pool[self._next_assignment % len(pool)]
        self._next_assignment += 1
        return worker

    def _eligible(self, worker: Worker, excluded: set[int]) -> bool:
        return (
            worker.alive
            and worker.worker_id not in excluded
            and not self.is_blacklisted(worker.worker_id)
        )

    def _least_busy(self, holder: Worker, excluded: set[int]) -> Worker:
        """The eligible worker whose lane has been busy least (summed
        over its cores' slots), ``holder`` on ties, then the lowest id.
        A cached read costs the same on every worker (delay scheduling
        with a zero wait), and busy time ignores the traced stage floor,
        so tracing never moves a task."""
        busy_time = self.tracer.clock.busy_time
        best, best_busy = holder, busy_time(holder.worker_id)
        for worker in self.workers:
            busy = busy_time(worker.worker_id)
            if busy < best_busy and self._eligible(worker, excluded):
                best, best_busy = worker, busy
        return best

    def task_completed(self, worker: Worker) -> None:
        """Record a completed task and fire any due failure injectors."""
        worker.tasks_run += 1
        self.total_tasks_completed += 1
        for injector in self._failure_injectors:
            if injector.should_fire(self.total_tasks_completed):
                injector.fired = True
                dead = injector.worker_id
                self.kill_worker(worker.worker_id if dead is None else dead)

    def inject_failure(
        self, worker_id: int | None, after_tasks: int
    ) -> FailureInjector:
        """Arrange for ``worker_id`` to die after ``after_tasks`` completions
        (``None``: the worker that completes the last of them)."""
        injector = FailureInjector(worker_id=worker_id, after_tasks=after_tasks)
        self._failure_injectors.append(injector)
        return injector

    # ------------------------------------------------------------------
    # Block placement helpers
    # ------------------------------------------------------------------
    def put_block(
        self,
        worker_id: int,
        block_id: str,
        value: Any,
        size_bytes: int | None = None,
    ) -> None:
        self.workers[worker_id].blocks.put(block_id, value, size_bytes)

    def pinned_block_ids(self) -> set[str]:
        """Pinned (shuffle map output) block ids across live workers.

        Cross-checked against ``ShuffleManager.registered_block_ids`` by
        lifecycle tests: every pinned block must belong to a registered
        shuffle — a cancelled query may not leak pinned storage.
        """
        ids: set[str] = set()
        for worker in self.live_workers():
            ids |= worker.blocks.pinned_ids()
        return ids

    def find_block(self, block_id: str) -> tuple[int, Any] | None:
        """Locate a block on any live worker; returns (worker_id, value)."""
        for worker in self.workers:
            if worker.alive and block_id in worker.blocks:
                return worker.worker_id, worker.blocks.get(block_id)
        return None

    @property
    def total_cached_bytes(self) -> int:
        return sum(worker.blocks.used_bytes for worker in self.live_workers())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        live = len(self.live_workers())
        return f"VirtualCluster({live}/{len(self.workers)} workers live)"
