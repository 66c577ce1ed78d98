"""Statistics accumulators."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Histogram, RunningStats, TimeWeightedAverage

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.variance == 0.0

    def test_single_sample(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.min == 5.0 == s.max
        assert s.stddev == 0.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_statistics_module(self, values):
        s = RunningStats()
        for value in values:
            s.add(value)
        assert s.count == len(values)
        assert s.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert s.variance == pytest.approx(
            statistics.variance(values), abs=1e-4, rel=1e-6
        )
        assert s.min == min(values)
        assert s.max == max(values)


class TestHistogram:
    def test_binning(self):
        h = Histogram(bin_width=10)
        for v in (0, 5, 9.99, 10, 25):
            h.add(v)
        # three samples in [0, 10), one in [10, 20), one in [20, 30):
        # a quantile reads as the upper edge of the bin it falls in
        assert h.percentile(0.6) == 10.0
        assert h.percentile(0.8) == 20.0
        assert h.percentile(1.0) == 30.0

    def test_overflow(self):
        h = Histogram(bin_width=1, max_bins=10)
        h.add(100)
        assert h.overflow == 1
        assert h.count == 1

    def test_percentile(self):
        h = Histogram(bin_width=1)
        for v in range(100):
            h.add(v)
        assert h.percentile(0.5) == pytest.approx(50, abs=1)
        assert h.percentile(1.0) == pytest.approx(100, abs=1)

    def test_percentile_empty_is_none(self):
        assert Histogram().percentile(0.5) is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0)
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)


class TestTimeWeightedAverage:
    def test_constant_signal(self):
        t = TimeWeightedAverage(initial=3.0)
        assert t.average(10) == 3.0

    def test_step_signal(self):
        t = TimeWeightedAverage()
        t.update(5, 10.0)  # 0 for 5 cycles, then 10
        assert t.average(10) == pytest.approx(5.0)
        assert t.peak == 10.0

    def test_time_must_not_go_backward(self):
        t = TimeWeightedAverage()
        t.update(5, 1.0)
        with pytest.raises(ValueError):
            t.update(4, 2.0)
