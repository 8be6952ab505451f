"""The simulated discrete-event clock behind every trace timestamp.

The execution engine runs tasks eagerly in-process; real durations would
measure the host laptop, not the modelled cluster.  Instead each lane
(one per virtual worker, plus ``"driver"``) carries its own simulated
time, one slot per core, advanced by the cost model's estimate of every
task that runs on it — the same discrete-event treatment
:class:`~repro.costmodel.simulator.ClusterSimulator` applies at cluster
scale.  ``src/repro`` never reads the wall clock (CI greps for it), so
two runs of the same query produce byte-identical traces.
"""

from __future__ import annotations

from typing import Hashable

#: Lane name for driver-side activity (jobs, stages, planning).
DRIVER_LANE = "driver"


class VirtualClock:
    """Per-lane simulated time with a global frontier.

    A lane has one slot per core (:meth:`set_cores`; one slot when
    never registered, as the driver's).  ``advance_lane`` models one
    task occupying a lane: the task takes the lane's earliest-free slot
    (the lowest on ties), starts at the later of that slot's free time
    and ``not_before`` (its stage cannot start before the driver
    submitted it), runs for ``seconds`` of simulated time, and leaves
    the slot busy until it finishes.  ``now`` is the frontier — the
    latest simulated instant any lane has reached.  ``busy_time`` is the
    lane's total over its slots and ignores ``not_before``.
    """

    def __init__(self) -> None:
        self._cores: dict[Hashable, int] = {}
        self._slots: dict[Hashable, list[float]] = {}
        self._busy: dict[Hashable, float] = {}
        self._now = 0.0

    def set_cores(self, lane: Hashable, cores: int) -> None:
        """Give ``lane`` ``cores`` slots.  Call it before the lane's
        first task: a lane already in use keeps its slots until reset."""
        self._cores[lane] = cores

    def now(self) -> float:
        """The global simulated-time frontier."""
        return self._now

    def lane_time(self, lane: Hashable) -> float:
        """When ``lane``'s earliest-free slot becomes free."""
        return min(self._slots.get(lane, (0.0,)))

    def busy_time(self, lane: Hashable) -> float:
        """Seconds ``lane`` has been occupied since the last reset,
        summed over its slots."""
        return self._busy.get(lane, 0.0)

    def advance_lane(
        self,
        lane: Hashable,
        seconds: float,
        not_before: float = 0.0,
    ) -> tuple[float, float]:
        """Occupy ``lane`` for ``seconds``; returns (start, end)."""
        if seconds < 0:
            raise ValueError(f"cannot advance {seconds} seconds")
        slots = self._slots.get(lane)
        if slots is None:
            slots = self._slots[lane] = [0.0] * self._cores.get(lane, 1)
        slot = slots.index(min(slots))
        start = max(slots[slot], not_before)
        end = start + seconds
        slots[slot] = end
        self._busy[lane] = self._busy.get(lane, 0.0) + seconds
        if end > self._now:
            self._now = end
        return start, end

    def advance(self, seconds: float) -> float:
        """Advance the global frontier (driver-side waits); returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance {seconds} seconds")
        self._now += seconds
        return self._now

    def reset(self) -> None:
        """Rewind every lane to 0; the lanes keep their core counts."""
        self._slots.clear()
        self._busy.clear()
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f}, lanes={len(self._slots)})"
