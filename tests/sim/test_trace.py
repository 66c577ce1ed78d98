"""Tracer behaviour."""

from __future__ import annotations

from repro.sim.trace import Tracer


class TestTracer:
    def test_enabled_records(self):
        t = Tracer()
        t.emit(3, "sw0", "flit_in", port=2)
        (record,) = t.records
        assert record.cycle == 3
        assert record.source == "sw0"
        assert record.get("port") == 2
        assert record.get("missing", "x") == "x"

    def test_select_filters(self):
        t = Tracer()
        t.emit(0, "a", "x", k=1)
        t.emit(1, "b", "x", k=2)
        t.emit(2, "a", "y", k=3)
        assert len(list(t.select(event="x"))) == 2
        assert len(list(t.select(source="a"))) == 2
        assert len(list(t.select(event="x", source="a"))) == 1
        assert len(list(t.select(where=lambda r: r.get("k") > 1))) == 2

    def test_counts(self):
        t = Tracer()
        t.emit(0, "a", "x")
        t.emit(0, "a", "x")
        t.emit(0, "a", "y")
        assert t.counts() == {"x": 2, "y": 1}

    def test_limit_drops_oldest(self):
        t = Tracer(limit=3)
        for i in range(5):
            t.emit(i, "a", "e", i=i)
        assert [r.get("i") for r in t.records] == [2, 3, 4]

    def test_dropped_count_tracks_evictions(self):
        t = Tracer(limit=3)
        for i in range(3):
            t.emit(i, "a", "e", i=i)
        assert t.dropped_count == 0  # exactly at the limit: nothing lost
        for i in range(3, 5):
            t.emit(i, "a", "e", i=i)
        assert t.dropped_count == 2
        assert len(t.records) == 3
        # the retained window is always the newest records
        assert [r.get("i") for r in t.records] == [2, 3, 4]

    def test_records_of_a_full_ring_index_and_slice_oldest_first(self):
        # the ring is a deque inside; callers still get a list
        t = Tracer(limit=4)
        for i in range(9):
            t.emit(i, "a", "e", i=i)
        records = t.records
        assert records[0].get("i") == 5 and records[-1].get("i") == 8
        assert [r.get("i") for r in records[1:3]] == [6, 7]
        assert [r.get("i") for r in t.select(event="e")] == [5, 6, 7, 8]

    def test_clear(self):
        t = Tracer()
        t.emit(0, "a", "x")
        t.clear()
        assert t.records == []

    def test_clear_resets_dropped_count(self):
        t = Tracer(limit=1)
        t.emit(0, "a", "x")
        t.emit(1, "a", "x")
        assert t.dropped_count == 1
        t.clear()
        assert t.dropped_count == 0
