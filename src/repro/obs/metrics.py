"""Metrics registry: counters, gauges, bounded histograms, one seam.

Everything that wants to publish a number — ``NetworkStats``, the flow
controllers, the realtime scheduler's sleep lag, tcp connection reuse —
goes through one :class:`MetricsRegistry` per kernel.  Sources register
once (:meth:`MetricsRegistry.register`) and ``collect()`` returns a flat
JSON-able dict, which is what ``Kernel.store_summary``, shard digests
and benchmark JSON all read.

Histograms are *bounded*: fixed bucket boundaries plus streaming
count/total/min/max, so a million observations cost a handful of ints.
Registries pickle across the process shard backend via
``export_state()`` / ``load_state()``.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsView"]

#: default bucket upper bounds: exponential, micro-seconds to minutes
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 60.0)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value: set directly, or backed by a callable."""

    __slots__ = ("name", "_value", "fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Bounded histogram: fixed buckets + streaming count/total/min/max.

    ``bucket_counts[i]`` counts observations <= ``bounds[i]``; the last
    slot is the overflow bucket.  Quantiles are estimated from the bucket
    an observation landed in (upper-bound estimate), which is exactly the
    fidelity a p50/p99 latency breakdown needs at O(len(bounds)) memory.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (None while empty)."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= target and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """One kernel's metrics: owned instruments plus registered sources."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_sources")

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: the seam: name -> callable returning a dict merged into collect()
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # -- instruments (get-or-create) -------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        try:
            gauge = self._gauges[name]
        except KeyError:
            gauge = self._gauges[name] = Gauge(name, fn)
            return gauge
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            histogram = self._histograms[name] = Histogram(name, bounds)
            return histogram

    def register(self, name: str,
                 source: Callable[[], Dict[str, Any]]) -> None:
        """Register a named source whose dict is merged into ``collect()``.

        This is how ``NetworkStats`` (and anything else with a snapshot)
        is re-exposed: ``registry.register("net", stats.snapshot)``.
        Sources are re-read on every collect, so the registry always
        reflects live counters.
        """
        self._sources[name] = source

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    # -- reading ---------------------------------------------------------------

    def collect_sources(self, skip=()) -> Dict[str, Any]:
        """What the registered sources read now, merged into one dict.

        The part-level read :class:`MetricsView` sums and a process shard
        worker ships in its digest; *skip* names sources the caller obtains
        another way.
        """
        out: Dict[str, Any] = {}
        for name, source in self._sources.items():
            if name not in skip:
                out.update(source())
        return out

    def collect_own(self) -> Dict[str, Any]:
        """Owned instruments only (no sources) as a flat JSON-able dict."""
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return out

    def collect(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """Sources merged with owned instruments, optionally prefix-filtered."""
        out = self.collect_sources()
        out.update(self.collect_own())
        if prefix is None:
            return out
        return {key: value for key, value in out.items()
                if key.startswith(prefix)}

    # -- state transfer (process shard backend) --------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Owned instruments as one picklable dict (sources are not shipped —
        the coordinator re-registers its own)."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: {"bounds": list(h.bounds),
                       "bucket_counts": list(h.bucket_counts),
                       "count": h.count, "total": h.total,
                       "min": h.min, "max": h.max}
                for name, h in self._histograms.items()},
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Replace owned instruments from an :meth:`export_state` dict."""
        self._counters.clear()
        for name, value in state.get("counters", {}).items():
            self.counter(name).value = value
        self._gauges.clear()
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        self._histograms.clear()
        for name, payload in state.get("histograms", {}).items():
            histogram = self.histogram(name, payload["bounds"])
            histogram.bucket_counts = list(payload["bucket_counts"])
            histogram.count = payload["count"]
            histogram.total = payload["total"]
            histogram.min = payload["min"]
            histogram.max = payload["max"]


class MetricsView:
    """Merged read-only registry view (the sharded facade's ``metrics``).

    Counters and histograms sum across parts; gauges sum too (every gauge
    in the system is an additive quantity like backlog or pair counts),
    and so do the values of the sources each part registered (flow clamps,
    tcp connections, ...).  A source registered on the view itself (the
    merged ``StatsView`` snapshot, whose values are not all additive)
    stands in for the parts' sources of that name, so
    ``kernel.metrics.collect()`` has one shape everywhere.
    """

    __slots__ = ("_parts", "_sources")

    def __init__(self, parts: Sequence[MetricsRegistry]):
        self._parts = list(parts)
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def register(self, name: str,
                 source: Callable[[], Dict[str, Any]]) -> None:
        self._sources[name] = source

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    def collect_own(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        histograms: Dict[str, Histogram] = {}
        for part in self._parts:
            for name, counter in part._counters.items():
                merged[name] = merged.get(name, 0) + counter.value
            for name, gauge in part._gauges.items():
                merged[name] = merged.get(name, 0) + gauge.value
            for name, histogram in part._histograms.items():
                into = histograms.get(name)
                if into is None:
                    into = histograms[name] = Histogram(name, histogram.bounds)
                into.merge_from(histogram)
        for name, histogram in histograms.items():
            merged[name] = histogram.summary()
        return merged

    def collect(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for part in self._parts:
            for key, value in part.collect_sources(skip=self._sources).items():
                out[key] = out.get(key, 0) + value
        for source in self._sources.values():
            out.update(source())
        out.update(self.collect_own())
        if prefix is None:
            return out
        return {key: value for key, value in out.items()
                if key.startswith(prefix)}

    def counter(self, name: str) -> Counter:
        """Create/fetch a counter on the first part (facade-owned metrics)."""
        return self._parts[0].counter(name) if self._parts else Counter(name)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        return (self._parts[0].histogram(name, bounds)
                if self._parts else Histogram(name, bounds))
