"""The seedable fault-injection harness.

Every decision is drawn from a :class:`random.Random` seeded with the
injector's seed *and* the injection site (stage id, partition, attempt,
…), so decisions are deterministic and independent of the order in which
the scheduler happens to visit tasks.  The injector never reads the wall
clock; delays are expressed as multipliers on the cost model's simulated
task seconds.

Fault kinds
-----------

``transient task failure``
    A task attempt raises :class:`~repro.errors.TransientTaskFailure`
    before doing any work; the scheduler retries it (with exponential
    simulated backoff) on another worker.  Only the first
    ``fail_attempts_ceiling`` attempts of a task can be failed, so a
    bounded retry policy always converges.

``flaky worker``
    Every attempt scheduled on a worker in ``flaky_workers`` fails.  The
    scheduler's blacklist machinery is what saves the query: after
    ``BLACKLIST_THRESHOLD`` failures the worker stops receiving tasks
    for a probation period.

``worker kill``
    ``kill_worker_id`` dies permanently after ``kill_after_tasks``
    cluster-wide task completions (lost cached partitions and shuffle
    outputs recompute from lineage).

``straggler``
    ``stragglers_per_stage`` tasks per stage run ``straggler_slowdown``
    times slower than the cost model's estimate, on their first attempt
    only — a speculative copy therefore runs at normal speed and wins.

``corrupt shuffle fetch``
    A reduce-side fetch finds a map output corrupted: the block is
    dropped and the fetch raises ``FetchFailedError``, forcing lineage
    recovery of that map partition.  Fires at most once per
    (shuffle, reduce partition) site and at most ``max_corrupt_fetches``
    times overall.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional


class FaultInjector:
    """Deterministic, seedable fault decisions for one engine context.

    Instances carry once-only bookkeeping (which corruptions fired, how
    many transient failures were injected), so use a **fresh injector per
    context/run**; reusing one across runs disarms its once-only faults.
    """

    def __init__(
        self,
        seed: int = 7,
        transient_failure_rate: float = 0.0,
        max_transient_failures: Optional[int] = None,
        fail_attempts_ceiling: int = 2,
        flaky_workers: Iterable[int] = (),
        kill_worker_id: Optional[int] = None,
        kill_after_tasks: int = 5,
        stragglers_per_stage: int = 0,
        straggler_slowdown: float = 8.0,
        corrupt_fetch_rate: float = 0.0,
        max_corrupt_fetches: int = 1,
    ):
        if not 0.0 <= transient_failure_rate <= 1.0:
            raise ValueError("transient_failure_rate must be in [0, 1]")
        if not 0.0 <= corrupt_fetch_rate <= 1.0:
            raise ValueError("corrupt_fetch_rate must be in [0, 1]")
        if straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if fail_attempts_ceiling < 1:
            raise ValueError("fail_attempts_ceiling must be >= 1")
        self.seed = seed
        self.transient_failure_rate = transient_failure_rate
        self.max_transient_failures = max_transient_failures
        self.fail_attempts_ceiling = fail_attempts_ceiling
        self.flaky_workers = frozenset(flaky_workers)
        self.kill_worker_id = kill_worker_id
        self.kill_after_tasks = kill_after_tasks
        self.stragglers_per_stage = stragglers_per_stage
        self.straggler_slowdown = straggler_slowdown
        self.corrupt_fetch_rate = corrupt_fetch_rate
        self.max_corrupt_fetches = max_corrupt_fetches
        # Once-only bookkeeping and injection counters (for reports).
        self.injected_transient = 0
        self.injected_flaky = 0
        self.injected_stragglers = 0
        self.injected_corruptions = 0
        self._corrupted_sites: set[tuple[int, int]] = set()
        self._straggled: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Deterministic site-keyed randomness
    # ------------------------------------------------------------------
    def _rng(self, *site) -> random.Random:
        """An RNG keyed by the injection site, independent of call order."""
        key = f"{self.seed}:" + ":".join(str(part) for part in site)
        return random.Random(key)

    # ------------------------------------------------------------------
    # Task-attempt faults (consulted by the scheduler)
    # ------------------------------------------------------------------
    def fail_task(
        self, stage_id: int, partition: int, attempt: int, worker_id: int
    ) -> Optional[str]:
        """Reason string when this task attempt should fail, else None."""
        if worker_id in self.flaky_workers:
            self.injected_flaky += 1
            return f"flaky worker {worker_id}"
        if (
            self.transient_failure_rate > 0.0
            and attempt <= self.fail_attempts_ceiling
            and (
                self.max_transient_failures is None
                or self.injected_transient < self.max_transient_failures
            )
        ):
            draw = self._rng("task", stage_id, partition, attempt).random()
            if draw < self.transient_failure_rate:
                self.injected_transient += 1
                return "injected transient failure"
        return None

    def straggler_factor(
        self, stage_id: int, partition: int, num_tasks: int, attempt: int
    ) -> float:
        """Slowdown multiplier for this attempt's simulated runtime."""
        if self.stragglers_per_stage <= 0 or attempt > 1 or num_tasks <= 1:
            return 1.0
        count = min(self.stragglers_per_stage, num_tasks)
        picks = self._rng("straggler", stage_id).sample(
            range(num_tasks), count
        )
        if partition % num_tasks in picks:
            site = (stage_id, partition)
            if site not in self._straggled:
                self._straggled.add(site)
                self.injected_stragglers += 1
            return self.straggler_slowdown
        return 1.0

    # ------------------------------------------------------------------
    # Shuffle corruption (consulted by the shuffle manager)
    # ------------------------------------------------------------------
    def corrupt_fetch(self, shuffle_id: int, reduce_partition: int) -> bool:
        """Whether this fetch should find a corrupted map output."""
        if self.corrupt_fetch_rate <= 0.0:
            return False
        if self.injected_corruptions >= self.max_corrupt_fetches:
            return False
        site = (shuffle_id, reduce_partition)
        if site in self._corrupted_sites:
            return False
        draw = self._rng("corrupt", shuffle_id, reduce_partition).random()
        if draw < self.corrupt_fetch_rate:
            self._corrupted_sites.add(site)
            self.injected_corruptions += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}): "
            f"{self.injected_transient} transient, "
            f"{self.injected_flaky} flaky-worker, "
            f"{self.injected_stragglers} straggler, "
            f"{self.injected_corruptions} corrupted-fetch faults injected"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()
