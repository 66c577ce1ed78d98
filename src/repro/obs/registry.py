"""Named metric instruments: counters, gauges and fixed-bucket histograms.

Components register instruments against a :class:`MetricsRegistry` *by
name*; registering the same counter name twice returns the same object,
so e.g. every switch in a network can fold into one shared
``switch.flits_forwarded`` total without coordination.

Instrumentation is **off by default**, and off means absent: a
component built without a registry (``metrics=None``) registers no
instrument at all, and its hot paths guard each call behind one boolean
captured at construction (``self._obs = metrics is not None``).  An
unguarded call then raises ``AttributeError`` in every unobserved run
instead of silently costing a no-op call per flit.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` events (``n`` >= 0)."""
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time reading, evaluated through a callback.

    The callback runs only when the gauge is read (by a sampler or a
    snapshot), never on the simulation hot path.  Callbacks may be
    stateful — windowed rates keep their previous reading in a closure.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> float:
        """Evaluate the gauge now."""
        return float(self.fn())

    def __repr__(self) -> str:
        return f"Gauge({self.name!r})"


class BucketHistogram:
    """A fixed-bucket histogram with cumulative-style explicit bounds.

    ``bounds`` are the inclusive upper edges of the finite buckets, in
    strictly increasing order; one implicit overflow bucket catches
    everything above the last bound.  Bucket layout is fixed at
    registration, so observation is O(log buckets) and memory is
    constant regardless of sample count.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> Dict[str, object]:
        """Bucket layout and counts as plain JSON-friendly data."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }

    def __repr__(self) -> str:
        return f"BucketHistogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, BucketHistogram] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Register the callback-backed gauge ``name`` (unique)."""
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        gauge = self._gauges[name] = Gauge(name, fn)
        return gauge

    def histogram(
        self, name: str, bounds: Sequence[float]
    ) -> BucketHistogram:
        """The histogram named ``name``, created with ``bounds`` on
        first use; later registrations must agree on the bounds."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = BucketHistogram(name, bounds)
        elif histogram.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return histogram

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, Counter]:
        """Registered counters by name (read-only by convention)."""
        return self._counters

    @property
    def gauges(self) -> Dict[str, Gauge]:
        """Registered gauges by name (read-only by convention)."""
        return self._gauges

    @property
    def histograms(self) -> Dict[str, BucketHistogram]:
        """Registered histograms by name (read-only by convention)."""
        return self._histograms

    def sample_gauges(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Evaluate ``names`` (default: every gauge) right now."""
        selected = self._gauges if names is None else {
            name: self._gauges[name] for name in names
        }
        return {name: gauge.read() for name, gauge in sorted(selected.items())}

    def snapshot(self) -> Dict[str, object]:
        """Every instrument's current value as JSON-friendly data."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": self.sample_gauges(),
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
