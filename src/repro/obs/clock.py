"""The simulated discrete-event clock behind every trace timestamp.

The execution engine runs tasks eagerly in-process; real durations would
measure the host laptop, not the modelled cluster.  Instead each lane
(one per virtual worker, plus ``"driver"``) carries its own simulated
time, advanced by the cost model's estimate of every task that runs on
it — the same discrete-event treatment
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

    ``advance_lane`` models one task occupying a lane: the task starts
    at the later of the lane's current time and ``not_before`` (its
    stage cannot start before the driver submitted it), runs for
    ``seconds`` of simulated time, and leaves the lane busy until it
    finishes.  ``now`` is the frontier — the latest simulated instant
    any lane has reached.  ``busy_time`` ignores ``not_before``: it is
    the lane's free time when nothing held the lane back.
    """

    def __init__(self) -> None:
        self._lanes: dict[Hashable, float] = {}
        self._busy: dict[Hashable, float] = {}
        self._now = 0.0

    def now(self) -> float:
        """The global simulated-time frontier."""
        return self._now

    def lane_time(self, lane: Hashable) -> float:
        """When ``lane`` next becomes free."""
        return self._lanes.get(lane, 0.0)

    def busy_time(self, lane: Hashable) -> float:
        """Seconds ``lane`` has been occupied since the last reset."""
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
        start = max(self._lanes.get(lane, 0.0), not_before)
        end = start + seconds
        self._lanes[lane] = end
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

    def lanes(self) -> list[Hashable]:
        return list(self._lanes)

    def reset(self) -> None:
        self._lanes.clear()
        self._busy.clear()
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f}, lanes={len(self._lanes)})"
