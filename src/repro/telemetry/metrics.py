"""Counters, gauges and summary histograms for run-level metrics.

A :class:`MetricsRegistry` is the pull-side companion of the event tracer:
subsystems (``CMPSystem``, ``NucaL2``) publish their totals into one
registry, and the registry's :meth:`~MetricsRegistry.snapshot`
becomes ``SystemResult.telemetry`` — a plain JSON-serialisable dict, stable
across serial and parallel runs because every published value is derived
from simulated state, never from the host.

Like the tracer, a registry is only constructed when telemetry is enabled;
hot paths guard every touch with ``if metrics is not None``.

Histograms bucket observations into **fixed log-spaced buckets** (the
geometry is a module constant, never data-dependent), so two runs that
observe the same values report the same buckets and the same estimated
percentiles — p50/p95/p99 in :meth:`Histogram.summary` are deterministic
functions of the observed multiset, not of arrival order or host state.
"""

from __future__ import annotations

import math

#: lower bound of the first histogram bucket; values at or below it (and
#: non-positive values, which the tracked quantities never produce) land in
#: bucket 0.  1 ns covers every wall-clock and per-item latency we track.
BUCKET_SCALE = 1e-9

#: geometric bucket growth: four buckets per octave keeps the relative
#: quantile error below ~19 % while hundreds of buckets span 1 ns..10^29.
BUCKET_GROWTH = 2.0 ** 0.25

_LOG_GROWTH = math.log(BUCKET_GROWTH)
_LOG_SCALE = math.log(BUCKET_SCALE)

#: hard ceiling on the bucket index (upper bound ~3.8e29 at the defaults);
#: anything larger clamps here instead of growing the key space unboundedly.
MAX_BUCKET = 512


def bucket_index(value: float) -> int:
    """Deterministic bucket for one observation.

    Bucket ``i > 0`` spans ``(SCALE * GROWTH**(i-1), SCALE * GROWTH**i]``;
    bucket 0 holds everything at or below :data:`BUCKET_SCALE`.
    """
    if value <= BUCKET_SCALE:
        return 0
    if math.isinf(value):  # ceil(inf) cannot convert; clamp directly
        return MAX_BUCKET
    # log difference, not log of a quotient: value / BUCKET_SCALE can
    # overflow a float for huge observations
    index = int(math.ceil((math.log(value) - _LOG_SCALE) / _LOG_GROWTH))
    return min(max(index, 1), MAX_BUCKET)


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of bucket ``index``."""
    if index <= 0:
        return BUCKET_SCALE
    return BUCKET_SCALE * BUCKET_GROWTH ** index


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Last-written value (occupancy, worker count, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary over fixed log-spaced buckets.

    Tracks exact count/total/min/max plus a sparse ``{bucket: count}``
    map, from which :meth:`quantile` answers p50/p95/p99 with the bucket
    geometry's bounded relative error.  Memory stays O(occupied buckets)
    regardless of observation count.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) from the bucket counts.

        Returns the upper bound of the bucket containing the target rank,
        clamped into the exact observed ``[min, max]`` envelope so a
        histogram of identical values reports that value for every
        quantile.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                estimate = bucket_upper_bound(index)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to `count`

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named metric store with get-or-create accessors."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def snapshot(self) -> dict:
        """JSON-serialisable view of every published metric."""
        return {
            "counters": {
                name: m.value for name, m in sorted(self._counters.items())
            },
            "gauges": {
                name: m.value for name, m in sorted(self._gauges.items())
            },
            "histograms": {
                name: m.summary()
                for name, m in sorted(self._histograms.items())
            },
        }
