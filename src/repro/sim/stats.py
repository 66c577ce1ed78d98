"""Streaming statistics accumulators used by the metric collectors.

These avoid storing every sample: simulations record millions of flit and
message events, so collectors use Welford's online algorithm for moments.
"""

from __future__ import annotations

import math


class RunningStats:
    """Online mean/variance/min/max via Welford's algorithm.

    >>> s = RunningStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.mean
    2.0
    >>> round(s.variance, 6)
    1.0
    """

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 with fewer than 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        if self.count == 0:
            return "RunningStats(empty)"
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.3f}, "
            f"sd={self.stddev:.3f}, min={self.min:.3f}, max={self.max:.3f})"
        )


class TimeWeightedAverage:
    """Average of a piecewise-constant signal, weighted by holding time.

    Used for buffer-occupancy statistics: call :meth:`update` whenever the
    level changes, then read :meth:`average`.
    """

    def __init__(self, initial: float = 0.0, start_time: int = 0) -> None:
        self._level = initial
        self._last_time = start_time
        self._area = 0.0
        self._start_time = start_time
        self.peak = initial

    def update(self, now: int, level: float) -> None:
        """Record that the signal changed to ``level`` at time ``now``."""
        if now < self._last_time:
            raise ValueError("time must be monotonically non-decreasing")
        self._area += self._level * (now - self._last_time)
        self._level = level
        self._last_time = now
        if level > self.peak:
            self.peak = level

    def average(self, now: int) -> float:
        """Time-weighted mean of the signal from start to ``now``."""
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._level
        area = self._area + self._level * (now - self._last_time)
        return area / elapsed
