"""Measurement primitives: calibration spin, percentiles, RSS, samples.

Imports nothing from the program, so the harness tests run it alone.

Why calibrated wall-clock: on this box the host's CPU speed drifts by
tens of percent between back-to-back runs of identical work
(``time.process_time`` tracks wall, so it is speed drift, not steal).  A
fixed pure-Python spin taken immediately before and after each timed
pass measures the speed the pass ran at; every wall-clock metric is
reported in *calibrated* seconds — what the pass would have taken at the
reference speed ``REF_SPIN_S`` — and the raw values are kept as
``harness.*`` per-layer numbers.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass
from typing import Optional

#: Seconds one ``spin()`` takes at the reference machine speed: the
#: median measured on the box this benchmark was defined on.  Only its
#: constancy matters — it fixes the unit of "calibrated seconds".
REF_SPIN_S = 0.0205

def spin() -> float:
    """Run the fixed pure-Python workload; returns its wall seconds.

    A third interpreter arithmetic, a third dict and tuple allocation, a
    third sorting: the mix the program under test spends its time in, so
    it speeds up and slows down with it.  (An arithmetic-only spin left
    memory-side host contention uncorrected: on the same stretch of
    noise it cut the spread of a dict-and-sort job from 11 % to 6 %,
    this mix to 4 %.)  The collector is off while it runs: its
    allocations would otherwise trigger collections whose cost grows
    with the program's heap, and the spin must not measure the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(90_000):
            acc = (acc + i * i) & 0xFFFF
        table = {}
        for i in range(35_000):
            table[i % 3000] = (i, str(i))
        rows = [(i, float(i), "x%d" % (i % 7)) for i in range(23_000)]
        rows.sort(key=_third)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _third(row: tuple):
    return row[2]


def speed_factor(spin_before: float, spin_after: float) -> float:
    """Multiplier turning raw seconds into calibrated seconds."""
    return REF_SPIN_S / ((spin_before + spin_after) / 2.0)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the q-th
    nearest-rank percentile.  A tail percentile is trusted only with at
    least ten (choosing-metrics guide), i.e. p90 needs 100 samples."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def rss_mb() -> float:
    """Current resident set size in MB (Linux /proc; 0.0 elsewhere)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class OpSample:
    """One timed operation."""

    #: Identifies the op within a cycle; the oracle's expected rows are
    #: keyed by it.
    key: str
    wall_s: float
    sim_s: float
    ok: bool
    #: Row count of the result (None when the op returns no rows).
    nrows: Optional[int] = None


@dataclass
class PassSample:
    """One timed pass: its ops plus the spins that bracket it."""

    ops: list
    spin_before: float
    spin_after: float
    #: Simulated seconds of the pass when it is not the sum of its ops
    #: (``serving_mix``: the clock advance, so queueing counts).
    sim_s: Optional[float] = None
    #: Wall-clock latency samples when they are not the ops themselves
    #: (``serving_mix``: one per wave, per submission).
    wall_samples: Optional[list] = None

    @property
    def factor(self) -> float:
        return speed_factor(self.spin_before, self.spin_after)

    @property
    def raw_seconds(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cal_seconds(self) -> float:
        return self.raw_seconds * self.factor

    @property
    def sim_seconds(self) -> float:
        if self.sim_s is not None:
            return self.sim_s
        return sum(op.sim_s for op in self.ops)

    def latencies_cal_ms(self) -> list:
        samples = self.wall_samples
        if samples is None:
            samples = [op.wall_s for op in self.ops]
        return [seconds * self.factor * 1e3 for seconds in samples]


def across_cycles(cycles: list, values) -> list:
    """Per schedule position, the median over cycles.

    ``cycles`` is a list of equal-length pass lists (a run repeats one
    fixed schedule); ``values(pass)`` gives that pass's samples.  Every
    position of the schedule is a distinct, repeatable op, so the median
    of its repetitions drops the host's sporadic stalls and keeps any
    stall the program itself produces at that point of the schedule."""
    per_cycle = [
        [value for p in passes for value in values(p)] for passes in cycles
    ]
    return [median(list(column)) for column in zip(*per_cycle)]


def end_to_end(
    setups_cal: list,
    cycles: list,
    peak_rss: float,
    stored_ratio: float,
) -> dict:
    """The end-to-end metrics of one untraced run, from its samples
    (units are declared once, in BENCHMARK.json).

    Everything is per *cycle* of the fixed schedule, so no metric
    depends on how many cycles ``--seconds`` asked for: throughput is
    the cycle's ops over the sum of its passes' typical times, ``sim_s``
    the cycle's simulated seconds, and the latency percentiles run over
    the cycle's schedule positions (each the median of its repetitions).
    """
    pass_cal = across_cycles(cycles, lambda p: [p.cal_seconds])
    wall_ms = across_cycles(cycles, PassSample.latencies_cal_ms)
    sim_ms = across_cycles(
        cycles, lambda p: [op.sim_s * 1e3 for op in p.ops]
    )
    ops_per_cycle = sum(len(p.ops) for p in cycles[0])
    return {
        "setup_s": median(setups_cal),
        "cal_ops_per_s": ops_per_cycle / sum(pass_cal),
        "cal_op_p50_ms": percentile(wall_ms, 50),
        "cal_op_p90_ms": percentile(wall_ms, 90),
        "sim_s": median([sum(p.sim_seconds for p in c) for c in cycles]),
        "sim_op_p50_ms": percentile(sim_ms, 50),
        "sim_op_p90_ms": percentile(sim_ms, 90),
        "peak_rss_mb": peak_rss,
        "stored_bytes_per_user_byte": stored_ratio,
    }


def drift_ratio(pass_cal_seconds: list) -> float:
    """Median of the last quarter of passes over the first quarter: > 1
    means the program slows as state accumulates."""
    quarter = max(len(pass_cal_seconds) // 4, 1)
    return median(pass_cal_seconds[-quarter:]) / median(
        pass_cal_seconds[:quarter]
    )
