"""Greedy bin-packing of fine-grained partitions (paper Section 3.1.2).

"Fine-grained partitions are assigned to coalesced partitions using a
greedy bin-packing heuristic that attempts to equalize coalesced
partitions' sizes."  This is longest-processing-time-first list
scheduling: sort partitions by decreasing size and always assign to the
currently lightest bin.
"""

from __future__ import annotations

import heapq


def pack_partitions(sizes: list[int], num_bins: int) -> list[list[int]]:
    """Group partition indices into ``num_bins`` groups of balanced total
    size.  Returns a list of groups, each a list of partition indices;
    groups are never empty unless there are fewer partitions than bins.
    """
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    num_bins = min(num_bins, max(len(sizes), 1))
    if num_bins == 1:  # what the loop below would pack, without it
        return [list(range(len(sizes)))]
    # Heap of (current_total, bin_index); Python's heap breaks ties on the
    # bin index, keeping the packing deterministic.
    heap: list[tuple[int, int]] = [(0, index) for index in range(num_bins)]
    heapq.heapify(heap)
    groups: list[list[int]] = [[] for _ in range(num_bins)]
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    for partition in order:
        total, bin_index = heapq.heappop(heap)
        groups[bin_index].append(partition)
        heapq.heappush(heap, (total + sizes[partition], bin_index))
    return [sorted(group) for group in groups if group] or [[]]


def imbalance(sizes: list[int], groups: list[list[int]]) -> float:
    """Max-to-mean ratio of group totals (1.0 = perfectly balanced)."""
    totals = [sum(sizes[i] for i in group) for group in groups]
    if not totals or sum(totals) == 0:
        return 1.0
    mean = sum(totals) / len(totals)
    return max(totals) / mean if mean else 1.0
