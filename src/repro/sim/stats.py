"""Streaming statistics accumulators used by the metric collectors.

These avoid storing every sample: simulations record millions of flit and
message events, so collectors use Welford's online algorithm for moments
and fixed-width histograms for distributions.
"""

from __future__ import annotations

import math
from typing import List, Optional


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


class Histogram:
    """Fixed-bin-width histogram with overflow bin.

    Parameters
    ----------
    bin_width:
        Width of each bin; samples land in ``int(value // bin_width)``.
    max_bins:
        Samples beyond ``bin_width * max_bins`` accumulate in an overflow
        count rather than growing the bin list without bound.
    """

    def __init__(self, bin_width: float = 1.0, max_bins: int = 10_000) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if max_bins <= 0:
            raise ValueError("max_bins must be positive")
        self.bin_width = bin_width
        self.max_bins = max_bins
        self._bins: List[int] = []
        self.overflow = 0
        self.count = 0

    def add(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        index = int(value // self.bin_width)
        if index < 0:
            index = 0
        if index >= self.max_bins:
            self.overflow += 1
            return
        if index >= len(self._bins):
            self._bins.extend([0] * (index + 1 - len(self._bins)))
        self._bins[index] += 1

    def percentile(self, q: float) -> Optional[float]:
        """Return the approximate ``q``-quantile (0 <= q <= 1).

        Returns the upper edge of the bin containing the quantile, or
        ``None`` if the histogram is empty or the quantile falls in the
        overflow bin.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for index, n in enumerate(self._bins):
            seen += n
            if seen >= target:
                return (index + 1) * self.bin_width
        return None


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
