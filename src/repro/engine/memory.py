"""Unified memory accounting: one ledger over storage and execution.

Shark's in-memory claims (Sections 3.2 and 3.4 of the paper) rest on
knowing *who is holding memory when*: columnar tables cached in the
block store, and execution-side state — hash-aggregate accumulators,
join build tables, shuffle buffers, broadcast values — that today's
engines charge against a unified memory manager.  This module is that
manager's observability half: a per-worker :class:`MemoryAccountant`
with two pools,

``storage``
    bytes held by the :class:`~repro.cluster.worker.BlockStore` —
    cached RDD partitions and pinned shuffle map outputs; and
``execution``
    transient operator state reserved through a
    :class:`~repro.engine.task.TaskContext` (auto-released when the
    task attempt ends, so failed or cancelled attempts cannot leak) or
    held by long-lived broadcast values.

Every reservation is attributed to an ``owner`` label (``rdd_3``,
``shuffle_1``, ``batch_aggregate``, ``broadcast_0``, ...) so the ledger
answers "which operator peaked where" — surfaced via the ``memory.*``
metric family, the shell's ``.memory`` command, EXPLAIN ANALYZE's
``== memory ==`` section, and ``memory_watermark``/``memory_spill``
event-log records.

When a reservation would push a worker past ``memory_per_worker_bytes``
the accountant does **not** fail: it emits a structured
``memory.pressure`` instant carrying the would-be victim list from that
worker's block store (never pinned blocks), then *arbitrates* — first
evicting unpinned storage blocks LRU-first (cheapest: lineage
recomputes a cached partition on its next read), then asking the
worker's registered execution consumers (external hash aggregation,
external sort — see :mod:`repro.engine.spill`) to spill state to
simulated disk.  Either way the reservation itself always proceeds, so
callers never see an allocation failure; larger-than-memory queries
degrade to spilled execution instead of OOM.

All bookkeeping is plain dict arithmetic on the simulated clock — no
wall-clock reads, deterministic, and cheap enough for the task hot
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.obs.tracer import Tracer

#: Pool names.
STORAGE = "storage"
EXECUTION = "execution"
POOLS = (STORAGE, EXECUTION)

#: Pseudo worker id for driver-held reservations (broadcast values live
#: on the driver and are shipped to tasks by reference).
DRIVER_WORKER = -1

#: Victim-list entries included in a ``memory.pressure`` instant.
_MAX_VICTIMS = 8


@dataclass
class WorkerLedger:
    """Live bytes, peaks, and per-owner attribution for one worker."""

    worker_id: int
    capacity_bytes: Optional[int] = None
    #: pool -> live reserved bytes.
    used: dict = field(default_factory=lambda: {STORAGE: 0, EXECUTION: 0})
    #: pool -> high-water mark of ``used``.
    peak: dict = field(default_factory=lambda: {STORAGE: 0, EXECUTION: 0})
    #: (pool, owner) -> live bytes.
    owners: dict = field(default_factory=dict)
    #: (pool, owner) -> high-water mark.
    owner_peak: dict = field(default_factory=dict)
    #: ``memory.pressure`` events observed on this worker.
    pressure_events: int = 0

    @property
    def total_used(self) -> int:
        return self.used[STORAGE] + self.used[EXECUTION]

    @property
    def total_peak(self) -> int:
        return self.peak[STORAGE] + self.peak[EXECUTION]

    def headroom(self) -> Optional[int]:
        """Bytes until the worker cap (None when uncapped)."""
        if self.capacity_bytes is None:
            return None
        return max(self.capacity_bytes - self.total_used, 0)


def _spilled(key: str) -> property:
    """A spill total: the sum over ``spilled_by_owner``, its one home."""
    return property(
        lambda self: sum(e[key] for e in self.spilled_by_owner.values())
    )


def _lane(ledger: WorkerLedger):
    """The trace lane of a ledger's instants."""
    return ledger.worker_id if ledger.worker_id != DRIVER_WORKER else "driver"


class MemoryAccountant:
    """The per-worker two-pool ledger behind every allocation site.

    One per :class:`~repro.engine.context.EngineContext`; the cluster,
    block stores, shuffle manager, broadcasts, and physical operators
    all reserve and release through it so the engine has a single
    attributed view of memory.  ``reserve``/``release`` are the only
    mutation points — a CI grep guard forbids touching block-store byte
    fields anywhere else.
    """

    #: Arbitration-triggered spills, bytes spilled to disk, and runs.
    spill_events = _spilled("events")
    spill_bytes = _spilled("bytes")
    spill_runs = _spilled("runs")

    def __init__(
        self,
        tracer=None,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        #: Default per-worker cap (``memory_per_worker_bytes``).
        self.capacity_bytes = capacity_bytes
        self.ledgers: dict[int, WorkerLedger] = {}
        #: worker_id -> callable returning [(block_id, bytes), ...] of
        #: evictable (never pinned) blocks, insertion order — the
        #: would-be victim list a pressure event reports.
        self._victim_sources: dict[int, Callable[[], list]] = {}
        #: worker_id -> callable(nbytes) -> bytes freed by evicting
        #: unpinned storage blocks (the arbitration path's first step).
        self._evictors: dict[int, Callable[[int], int]] = {}
        #: worker_id -> registered spillable execution consumers, asked
        #: in registration order when eviction alone cannot cover an
        #: over-cap reservation.
        self._spill_consumers: dict[int, list] = {}
        #: Re-entrancy guard: a consumer's spill releases memory through
        #: this same accountant and must never trigger nested arbitration.
        self._arbitrating = False
        #: Monotonic totals, read by the memory.* counters.
        self.total_reserved_bytes = 0
        self.total_released_bytes = 0
        #: owner -> {"events", "bytes", "runs"} cumulative attribution:
        #: the one home of every spill count.
        self.spilled_by_owner: dict[str, dict[str, int]] = {}
        #: Bytes silently dropped by over-releases (double-release bugs);
        #: ``EngineContext.invariant_violations`` names any.
        self.clamped_release_bytes = 0
        metrics = self.tracer.metrics
        metrics.register_counter(
            "memory.reserved.bytes", lambda: self.total_reserved_bytes
        )
        metrics.register_counter(
            "memory.released.bytes", lambda: self.total_released_bytes
        )
        metrics.register_counter(
            "memory.release.clamped", lambda: self.clamped_release_bytes
        )
        metrics.register_counter(
            "memory.pressure.events", lambda: self.pressure_events
        )
        metrics.register_counter(
            "memory.spill.events", lambda: self.spill_events
        )
        metrics.register_counter("memory.spill.bytes", lambda: self.spill_bytes)
        metrics.register_counter("memory.spill.runs", lambda: self.spill_runs)
        metrics.register_gauge(
            "memory.storage.used", lambda: self._sum("used", STORAGE)
        )
        metrics.register_gauge(
            "memory.execution.used", lambda: self._sum("used", EXECUTION)
        )
        metrics.register_gauge(
            "memory.storage.peak", lambda: self._sum("peak", STORAGE)
        )
        metrics.register_gauge(
            "memory.execution.peak", lambda: self._sum("peak", EXECUTION)
        )
        metrics.register_gauge("memory.headroom", self._headroom)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def ledger(self, worker_id: int) -> WorkerLedger:
        entry = self.ledgers.get(worker_id)
        if entry is None:
            capacity = (
                self.capacity_bytes if worker_id != DRIVER_WORKER else None
            )
            entry = self.ledgers[worker_id] = WorkerLedger(
                worker_id=worker_id, capacity_bytes=capacity
            )
        return entry

    def attach_victim_source(
        self, worker_id: int, source: Callable[[], list]
    ) -> None:
        """Register a block store's evictable-block listing for
        ``memory.pressure`` victim reporting."""
        self._victim_sources[worker_id] = source

    def attach_evictor(
        self, worker_id: int, evictor: Callable[[int], int]
    ) -> None:
        """Register a block store's ``evict_up_to`` for arbitration:
        called with a byte shortfall, returns the bytes it freed."""
        self._evictors[worker_id] = evictor

    def register_spill_consumer(self, worker_id: int, consumer) -> None:
        """Register a spillable execution consumer (see
        :mod:`repro.engine.spill`) for ``worker_id``.  Consumers expose
        ``owner`` (attribution label) and ``spill(nbytes) ->
        (released, written, runs)``; task-scoped consumers must be
        deregistered when the attempt ends (``TaskContext`` does this)."""
        self._spill_consumers.setdefault(worker_id, []).append(consumer)

    def deregister_spill_consumer(self, worker_id: int, consumer) -> None:
        consumers = self._spill_consumers.get(worker_id)
        if consumers is not None and consumer in consumers:
            consumers.remove(consumer)

    # ------------------------------------------------------------------
    # The reserve / resize / release API
    # ------------------------------------------------------------------
    def reserve(
        self, worker_id: int, pool: str, owner: str, nbytes: int
    ) -> int:
        """Charge ``nbytes`` to ``owner`` in ``pool`` on ``worker_id``.

        Never fails: a reservation past the worker cap emits a
        structured ``memory.pressure`` event, then arbitrates — evict
        unpinned storage blocks first, then ask registered execution
        consumers to spill — and proceeds whether or not arbitration
        covered the shortfall.  Returns the bytes actually charged.
        """
        if nbytes <= 0:
            return 0
        nbytes = int(nbytes)
        ledger = self.ledger(worker_id)
        if (
            ledger.capacity_bytes is not None
            and ledger.total_used + nbytes > ledger.capacity_bytes
            and not self._arbitrating
        ):
            self._pressure(ledger, pool, owner, nbytes)
            self._arbitrate(ledger, pool, owner, nbytes)
        ledger.used[pool] += nbytes
        if ledger.used[pool] > ledger.peak[pool]:
            ledger.peak[pool] = ledger.used[pool]
        key = (pool, owner)
        live = ledger.owners.get(key, 0) + nbytes
        ledger.owners[key] = live
        if live > ledger.owner_peak.get(key, 0):
            ledger.owner_peak[key] = live
        self.total_reserved_bytes += nbytes
        return nbytes

    def release(
        self, worker_id: int, pool: str, owner: str, nbytes: int
    ) -> int:
        """Return ``nbytes`` of ``owner``'s reservation; clamped to the
        owner's live bytes so the ledger can never go negative.

        A clamp means someone released more than they reserved — a
        double-release — which is an accounting bug, not a normal path:
        the clamped remainder is counted under
        ``memory.release.clamped`` and ``clamped_release_bytes``, which
        ``EngineContext.invariant_violations`` names.
        Returns the bytes actually released."""
        if nbytes <= 0:
            return 0
        ledger = self.ledger(worker_id)
        key = (pool, owner)
        live = ledger.owners.get(key, 0)
        requested = int(nbytes)
        nbytes = min(requested, live)
        self.clamped_release_bytes += requested - nbytes
        if nbytes <= 0:
            return 0
        remaining = live - nbytes
        if remaining:
            ledger.owners[key] = remaining
        else:
            del ledger.owners[key]
        ledger.used[pool] -= nbytes
        self.total_released_bytes += nbytes
        return nbytes

    def resize(
        self, worker_id: int, pool: str, owner: str, delta: int
    ) -> int:
        """Grow (positive ``delta``) or shrink a live reservation.

        Return contract — the **signed** byte delta actually applied to
        the ledger: ``>= 0`` bytes charged on grow, ``<= 0`` (minus the
        bytes released) on shrink.  Shrinks clamp at the owner's live
        bytes, so ``resize(..., -big)`` returns ``-live``, never less.
        Callers folding the result into their own byte tracking must
        *add* it in both directions; treating a shrink's return as a
        positive count double-books (the asymmetry this contract fixes).
        """
        if delta >= 0:
            return self.reserve(worker_id, pool, owner, delta)
        return -self.release(worker_id, pool, owner, -delta)

    def release_owner(
        self,
        owner: str,
        pool: Optional[str] = None,
        worker_id: Optional[int] = None,
    ) -> int:
        """Release everything ``owner`` still holds (cleanup paths:
        task teardown, broadcast destroy, worker kill)."""
        released = 0
        ledgers: Iterable[WorkerLedger] = (
            [self.ledger(worker_id)]
            if worker_id is not None
            else list(self.ledgers.values())
        )
        for ledger in ledgers:
            for key in [
                key
                for key in ledger.owners
                if key[1] == owner and (pool is None or key[0] == pool)
            ]:
                released += self.release(
                    ledger.worker_id, key[0], owner, ledger.owners[key]
                )
        return released

    @property
    def pressure_events(self) -> int:
        """``memory.pressure`` events across workers."""
        return sum(ledger.pressure_events for ledger in self.ledgers.values())

    def _spill_entry(self, owner: str) -> dict[str, int]:
        """``owner``'s spill attribution, made at its first spill, when
        its ``memory.spill.owner.<owner>.bytes`` counter is registered."""
        entry = self.spilled_by_owner.get(owner)
        if entry is None:
            entry = self.spilled_by_owner[owner] = {
                "events": 0, "bytes": 0, "runs": 0,
            }
            self.tracer.metrics.register_counter(
                f"memory.spill.owner.{owner}.bytes", lambda: entry["bytes"]
            )
        return entry

    def _sum(self, field_name: str, pool: str) -> int:
        """A pool's ``used`` or ``peak`` bytes summed across workers."""
        ledgers = self.ledgers.values()
        return sum(getattr(ledger, field_name)[pool] for ledger in ledgers)

    def _headroom(self) -> Optional[int]:
        """The tightest worker's remaining budget (None when uncapped)."""
        rooms = (ledger.headroom() for ledger in self.ledgers.values())
        return min((room for room in rooms if room is not None), default=None)

    # ------------------------------------------------------------------
    # Pressure
    # ------------------------------------------------------------------
    def _pressure(
        self, ledger: WorkerLedger, pool: str, owner: str, nbytes: int
    ) -> None:
        ledger.pressure_events += 1
        victims = []
        source = self._victim_sources.get(ledger.worker_id)
        if source is not None:
            victims = [
                {"block_id": block_id, "bytes": size}
                for block_id, size in source()[:_MAX_VICTIMS]
            ]
        self.tracer.instant(
            "memory.pressure",
            "memory",
            lane=_lane(ledger),
            pool=pool,
            owner=owner,
            requested_bytes=nbytes,
            used_bytes=ledger.total_used,
            capacity_bytes=ledger.capacity_bytes,
            victims=victims,
        )

    # ------------------------------------------------------------------
    # Arbitration (eviction before spill)
    # ------------------------------------------------------------------
    def _arbitrate(
        self, ledger: WorkerLedger, pool: str, owner: str, nbytes: int
    ) -> None:
        """Try to make room for an over-cap reservation.

        Policy: evict unpinned storage blocks first (lineage recomputes
        them — no I/O charged), then ask the worker's spill consumers,
        in registration order, to spill execution state to simulated
        disk.  Each step re-checks the shortfall because evictions and
        spills release through this accountant as they go.
        """
        self._arbitrating = True
        try:
            def shortfall() -> int:
                return ledger.total_used + nbytes - ledger.capacity_bytes

            evictor = self._evictors.get(ledger.worker_id)
            if evictor is not None and shortfall() > 0:
                evictor(shortfall())
            for consumer in list(
                self._spill_consumers.get(ledger.worker_id, ())
            ):
                if shortfall() <= 0:
                    break
                released, written, runs = consumer.spill(shortfall())
                if released > 0 or runs > 0:
                    self._note_spill(
                        ledger, consumer.owner, released, written, runs,
                        pool, owner, nbytes,
                    )
        finally:
            self._arbitrating = False

    def note_spill_write(
        self, owner: str, nbytes: int, runs: int = 0
    ) -> None:
        """Record spill-run bytes hitting simulated disk.

        Consumers call this for *every* run they write — accumulator
        runs cut during arbitration and raw-row runs flushed between
        arbitrations alike — so ``memory.spill.bytes``/``.runs`` and the
        per-owner attribution cover the full disk traffic, not just the
        arbitration-triggered slices.
        """
        entry = self._spill_entry(owner)
        entry["bytes"] += nbytes
        entry["runs"] += runs

    def _note_spill(
        self,
        ledger: WorkerLedger,
        spiller: str,
        released: int,
        written: int,
        runs: int,
        trigger_pool: str,
        trigger_owner: str,
        requested: int,
    ) -> None:
        """One arbitration-triggered consumer spill: the *event* and its
        instant (byte/run totals arrive via :meth:`note_spill_write`)."""
        self._spill_entry(spiller)["events"] += 1
        self.tracer.instant(
            "memory.spill",
            "memory",
            lane=_lane(ledger),
            owner=spiller,
            released_bytes=released,
            spilled_bytes=written,
            runs=runs,
            trigger_pool=trigger_pool,
            trigger_owner=trigger_owner,
            requested_bytes=requested,
            used_bytes=ledger.total_used,
            capacity_bytes=ledger.capacity_bytes,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def live_bytes(self, pool: Optional[str] = None) -> int:
        """Total live reserved bytes across workers."""
        return sum(
            ledger.used[pool] if pool is not None else ledger.total_used
            for ledger in self.ledgers.values()
        )

    def peak_bytes(self, pool: Optional[str] = None) -> int:
        return sum(
            ledger.peak[pool] if pool is not None else ledger.total_peak
            for ledger in self.ledgers.values()
        )

    def watermarks(self) -> list[dict[str, Any]]:
        """Per-worker per-pool snapshot rows, ready for event-log
        ``memory_watermark`` records and reports (stable order)."""
        rows: list[dict[str, Any]] = []
        for worker_id in sorted(self.ledgers):
            ledger = self.ledgers[worker_id]
            for pool in POOLS:
                rows.append(
                    {
                        "worker": worker_id,
                        "pool": pool,
                        "used_bytes": ledger.used[pool],
                        "peak_bytes": ledger.peak[pool],
                        "owners": {
                            owner: peak
                            for (p, owner), peak in sorted(
                                ledger.owner_peak.items()
                            )
                            if p == pool
                        },
                    }
                )
        return rows

    def spill_rows(self) -> list[dict[str, Any]]:
        """Per-owner cumulative spill attribution rows (stable order),
        ready for ``memory_spill`` event-log records and reports."""
        return [
            {
                "owner": owner,
                "events": entry["events"],
                "bytes": entry["bytes"],
                "runs": entry["runs"],
            }
            for owner, entry in sorted(self.spilled_by_owner.items())
        ]

    def spill_snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of the per-owner spill attribution, for computing
        per-query deltas around a statement."""
        return {
            owner: dict(entry)
            for owner, entry in self.spilled_by_owner.items()
        }

    def spill_rows_since(
        self, snapshot: dict[str, dict[str, int]]
    ) -> list[dict[str, Any]]:
        """Per-owner spill rows accumulated since ``snapshot`` (taken
        with :meth:`spill_snapshot`); owners with no new activity are
        omitted, keeping per-query event-log records minimal."""
        rows: list[dict[str, Any]] = []
        for owner, entry in sorted(self.spilled_by_owner.items()):
            base = snapshot.get(owner, {})
            delta = {
                field_name: entry[field_name] - base.get(field_name, 0)
                for field_name in ("events", "bytes", "runs")
            }
            if any(delta.values()):
                rows.append({"owner": owner, **delta})
        return rows

    def top_consumers(self, limit: int = 10) -> list[tuple]:
        """(owner, pool, peak_bytes) across all workers, largest first."""
        merged: dict[tuple, int] = {}
        for ledger in self.ledgers.values():
            for (pool, owner), peak in ledger.owner_peak.items():
                key = (owner, pool)
                if peak > merged.get(key, 0):
                    merged[key] = peak
        ranked = sorted(
            merged.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (owner, pool, peak) for (owner, pool), peak in ranked[:limit]
        ]

    def describe(self) -> str:
        """Human-readable ledger for the shell's ``.memory`` command."""
        if not self.ledgers:
            return "(no memory activity)"
        lines: list[str] = []
        for worker_id in sorted(self.ledgers):
            ledger = self.ledgers[worker_id]
            label = (
                "driver" if worker_id == DRIVER_WORKER
                else f"worker {worker_id}"
            )
            headroom = ledger.headroom()
            cap = (
                f", headroom {_fmt_bytes(headroom)}"
                if headroom is not None
                else ""
            )
            lines.append(
                f"{label}: storage {_fmt_bytes(ledger.used[STORAGE])} "
                f"(peak {_fmt_bytes(ledger.peak[STORAGE])}), "
                f"execution {_fmt_bytes(ledger.used[EXECUTION])} "
                f"(peak {_fmt_bytes(ledger.peak[EXECUTION])})"
                f"{cap}"
            )
            if ledger.pressure_events:
                lines.append(
                    f"  {ledger.pressure_events} memory.pressure event(s)"
                )
        consumers = self.top_consumers(limit=8)
        if consumers:
            lines.append("top consumers (peak bytes, any worker):")
            for owner, pool, peak in consumers:
                lines.append(
                    f"  {owner} [{pool}]: {_fmt_bytes(peak)}"
                )
        if self.spill_events:
            lines.append(
                f"spills: {self.spill_events} event(s), "
                f"{_fmt_bytes(self.spill_bytes)} to disk in "
                f"{self.spill_runs} run(s)"
            )
            for row in self.spill_rows():
                lines.append(
                    f"  {row['owner']}: {_fmt_bytes(row['bytes'])} in "
                    f"{row['runs']} run(s)"
                )
        return "\n".join(lines)


def _fmt_bytes(count: float) -> str:
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(count)}{unit}"
            return f"{count:.1f}{unit}"
        count /= 1024.0
    return f"{count:.1f}GiB"  # pragma: no cover - defensive
