"""Metrics registry: counters, gauges, histograms."""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    BucketHistogram,
    Counter,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6


class TestBucketHistogram:
    def test_buckets_are_inclusive_upper_edges(self):
        h = BucketHistogram("lat", (10, 100))
        for value in (0, 10, 11, 100, 101):
            h.observe(value)
        snap = h.snapshot()
        assert snap["bounds"] == [10.0, 100.0]
        assert snap["counts"] == [2, 2, 1]  # <=10, <=100, overflow
        assert snap["count"] == 5
        assert snap["total"] == 222.0

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            BucketHistogram("h", ())

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            BucketHistogram("h", (10, 10))
        with pytest.raises(ValueError):
            BucketHistogram("h", (10, 5))

    def test_single_bound(self):
        h = BucketHistogram("h", (1,))
        h.observe(0)
        h.observe(2)
        assert h.snapshot()["counts"] == [1, 1]


class TestMetricsRegistry:
    def test_counter_get_or_create_shares_instances(self):
        r = MetricsRegistry()
        a = r.counter("switch.flits_forwarded")
        b = r.counter("switch.flits_forwarded")
        assert a is b
        a.inc()
        b.inc(2)
        assert r.snapshot()["counters"] == {"switch.flits_forwarded": 3}

    def test_gauge_duplicate_name_rejected(self):
        r = MetricsRegistry()
        r.gauge("g", lambda: 1.0)
        with pytest.raises(ValueError):
            r.gauge("g", lambda: 2.0)

    def test_histogram_get_or_create_checks_bounds(self):
        r = MetricsRegistry()
        a = r.histogram("lat", (10, 100))
        assert r.histogram("lat", (10, 100)) is a
        with pytest.raises(ValueError):
            r.histogram("lat", (10, 99))

    def test_sample_gauges_sorted_and_filtered(self):
        r = MetricsRegistry()
        r.gauge("b", lambda: 2.0)
        r.gauge("a", lambda: 1.0)
        assert list(r.sample_gauges()) == ["a", "b"]
        assert r.sample_gauges(["b"]) == {"b": 2.0}

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g", lambda: 0.5)
        r.histogram("h", (1,)).observe(0)
        snap = r.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1
