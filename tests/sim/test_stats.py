"""Statistics accumulators."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import RunningStats, TimeWeightedAverage

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
