"""Run-time optimizer decisions driven by map-output statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Broadcast a join input when its materialized size is below this
#: (per-node memory budget for a replicated hash table).
DEFAULT_BROADCAST_THRESHOLD = 4 * 1024 * 1024
#: Target bytes per reduce task when choosing the degree of parallelism.
DEFAULT_TARGET_PARTITION_BYTES = 512 * 1024
#: Fine-grained shuffle buckets = this factor x default parallelism.
FINE_GRAINED_FACTOR = 4


@dataclass(frozen=True)
class JoinDecision:
    """Outcome of run-time join selection (Section 3.1.1)."""

    strategy: str  # 'broadcast_left' | 'broadcast_right' | 'shuffle'
    reason: str
    left_bytes: Optional[int] = None
    right_bytes: Optional[int] = None


def decide_join_strategy(
    left_bytes: Optional[int],
    right_bytes: Optional[int],
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
    left_broadcastable: bool = True,
    right_broadcastable: bool = True,
) -> JoinDecision:
    """Choose map join vs shuffle join from (possibly observed) sizes.

    "Map join is only worthwhile if some join inputs are small, so Shark
    uses partial DAG execution to select the join strategy at run-time
    based on its inputs' exact sizes."  Outer joins can only broadcast the
    non-preserved side, which the caller signals via ``*_broadcastable``.
    """
    candidates: list[tuple[int, str]] = []
    if right_bytes is not None and right_broadcastable:
        candidates.append((right_bytes, "broadcast_right"))
    if left_bytes is not None and left_broadcastable:
        candidates.append((left_bytes, "broadcast_left"))
    for size, strategy in sorted(candidates):
        if size <= broadcast_threshold:
            side = "right" if strategy == "broadcast_right" else "left"
            return JoinDecision(
                strategy=strategy,
                reason=(
                    f"{side} input observed at {size} bytes "
                    f"<= threshold {broadcast_threshold}"
                ),
                left_bytes=left_bytes,
                right_bytes=right_bytes,
            )
    return JoinDecision(
        strategy="shuffle",
        reason="no input small enough to broadcast",
        left_bytes=left_bytes,
        right_bytes=right_bytes,
    )


def choose_num_reducers(
    total_bytes: int,
    target_partition_bytes: int = DEFAULT_TARGET_PARTITION_BYTES,
    min_reducers: int = 1,
    max_reducers: int = 4096,
) -> int:
    """Degree of parallelism from observed map output volume
    (Section 3.1.2): enough reducers that each processes roughly
    ``target_partition_bytes``."""
    if total_bytes <= 0:
        return min_reducers
    wanted = (total_bytes + target_partition_bytes - 1) // target_partition_bytes
    return max(min_reducers, min(int(wanted), max_reducers))
