"""Named counters, gauges and histograms for the whole engine.

One :class:`MetricsRegistry` lives on each tracer (and therefore each
:class:`~repro.engine.context.EngineContext`).  Unlike span collection,
the registry is always on: increments are plain dict operations, cheap
enough for the hot path, and the shell's ``.metrics`` dot-command must
show engine activity without the user having opted into tracing.

A gauge is never written: its owner registers, once, a function that
reads the owner's state, called only when someone asks.  So is a counter
whose owner already counts its event (``register_counter``); ``inc``
counts only an event with no other home.  A name is one or the other.

Naming convention: dotted lowercase paths grouped by subsystem, e.g.
``tasks.launched``, ``shuffle.write.bytes``, ``blocks.evicted``,
``pde.join_decisions``, ``workers.killed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


def cache_ratios(total: Callable[[str], float]) -> dict[str, float]:
    """``cache.hit_ratio`` and ``blocks.eviction_ratio`` over counter
    totals (``total(name)``), each left out while its denominator is 0."""
    ratios = {}
    hits, misses = total("cache.hits"), total("cache.misses")
    if hits + misses:
        ratios["cache.hit_ratio"] = hits / (hits + misses)
    puts = total("blocks.put")
    if puts:
        ratios["blocks.eviction_ratio"] = total("blocks.evicted") / puts
    return ratios


#: Raw samples kept per histogram for exact percentiles; beyond this the
#: log-scale buckets answer (bounded memory, ~12% relative error).
_EXACT_SAMPLE_CAP = 4096

#: Log-scale bucket resolution: buckets per decade of value.
_BUCKETS_PER_DECADE = 20


def _bucket_of(value: float) -> int:
    """Bucket index for a positive value (log-scale)."""
    return math.floor(math.log10(value) * _BUCKETS_PER_DECADE)


def _bucket_upper(index: int) -> float:
    """Upper bound of a bucket (its representative value)."""
    return 10.0 ** ((index + 1) / _BUCKETS_PER_DECADE)


def percentiles_of(values: list[float], quantiles=(0.5, 0.95, 0.99)):
    """Exact nearest-rank percentiles of an in-memory value list."""
    if not values:
        return [0.0 for __ in quantiles]
    ordered = sorted(values)
    out = []
    for quantile in quantiles:
        rank = max(math.ceil(quantile * len(ordered)), 1) - 1
        out.append(ordered[min(rank, len(ordered) - 1)])
    return out


@dataclass
class Histogram:
    """Streaming summary of observed values with percentile estimates.

    Keeps every sample up to :data:`_EXACT_SAMPLE_CAP` (exact
    percentiles), then falls back to log-scale buckets: bounded memory,
    deterministic, and within ~12% relative error — enough for the
    p50/p95/p99 the shell's ``.metrics`` view reports.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    _samples: list[float] = field(default_factory=list, repr=False)
    _buckets: dict[int, int] = field(default_factory=dict, repr=False)
    #: Observations <= 0 (log buckets cannot hold them).
    _nonpositive: int = field(default=0, repr=False)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < _EXACT_SAMPLE_CAP:
            self._samples.append(value)
        if value > 0:
            bucket = _bucket_of(value)
            self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        else:
            self._nonpositive += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Value at ``quantile`` (0..1): exact while the sample buffer is
        complete, log-bucket estimate after, clamped to [min, max]."""
        if self.count == 0:
            return 0.0
        if len(self._samples) == self.count:
            return percentiles_of(self._samples, (quantile,))[0]
        target = max(math.ceil(quantile * self.count), 1)
        seen = self._nonpositive
        if seen >= target:
            return max(self.min, 0.0) if self.min <= 0 else self.min
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= target:
                estimate = _bucket_upper(bucket)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - defensive

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean plus p50/p95/p99, JSON-ready."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """All named metrics of one engine context."""

    def __init__(self) -> None:
        #: name -> total of a monotonically increasing count.
        self._counters: dict[str, float] = {}
        #: name -> its owner's reader of a count the owner keeps.
        self._counter_readers: dict[str, Callable] = {}
        #: name -> its owner's reader (None: nothing to report).
        self._gauges: dict[str, Callable] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Accessors (create on first use)
    # ------------------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------------
    # One-line emit helpers (the instrumented call sites use these)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {name} cannot decrease")
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def register_counter(self, name: str, read: Callable) -> None:
        """Make ``name`` a counter that ``read()`` answers; a new owner
        counts on from the old one's total, so a count never goes down."""
        previous = self._counter_readers.get(name)
        if previous is not None:
            base = previous()
            self._counter_readers[name] = lambda: base + read()
        else:
            self._counter_readers[name] = read

    def register_gauge(self, name: str, read: Callable) -> None:
        """Make ``name`` a gauge that ``read()`` answers."""
        self._gauges[name] = read

    def drop_gauge(self, name: str) -> None:
        """Forget a gauge whose owner is gone."""
        self._gauges.pop(name, None)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter or gauge: ``default`` while none
        is counted, or while the gauge's owner has nothing to report."""
        if name in self._counters:
            return self._counters[name]
        if name in self._counter_readers:
            return float(self._counter_readers[name]()) or default
        value = self._gauges.get(name, lambda: None)()
        return default if value is None else value

    def _read_counters(self) -> dict[str, float]:
        """name -> float value of every counter, sorted; a read counter is
        listed once non-zero, as an incremented one at its first inc."""
        values = dict(self._counters)
        for name, read in self._counter_readers.items():
            value = float(read())
            if value:
                values[name] = value
        return dict(sorted(values.items()))

    def _read_gauges(self) -> dict[str, float]:
        """name -> value of every gauge whose owner reports one."""
        values = ((name, read()) for name, read in sorted(self._gauges.items()))
        return {name: value for name, value in values if value is not None}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Plain-data view, stable key order, for tests and exporters."""
        return {
            "counters": self._read_counters(),
            "gauges": self._read_gauges(),
            "histograms": {
                name: metric.summary()
                for name, metric in sorted(self._histograms.items())
            },
        }

    def describe(self) -> str:
        """Human-readable dump for the shell's ``.metrics`` command."""
        lines: list[str] = []
        for name, value in self._read_counters().items():
            lines.append(f"{name} = {_number(value)}")
        for name, value in self._read_gauges().items():
            lines.append(f"{name} = {_number(value)} (gauge)")
        for name, metric in sorted(self._histograms.items()):
            if metric.count:
                lines.append(
                    f"{name}: count={metric.count} mean={metric.mean:.3f} "
                    f"p50={_number(metric.percentile(0.50))} "
                    f"p95={_number(metric.percentile(0.95))} "
                    f"p99={_number(metric.percentile(0.99))} "
                    f"min={_number(metric.min)} max={_number(metric.max)}"
                )
            else:
                lines.append(f"{name}: count=0")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.3f}"
