"""Packed flit plane: trace-string parity and span-queue laws.

The packed data plane (``repro.flits.packed``) replaces ``Flit`` objects
with ``(worm, index)`` coordinates and spans; the one conversion back to
the object world, ``flit_repr``, must match ``repr(Flit)`` for every
flit kind (head/body/tail) of every worm shape.  These are
property-based pins of that contract and of the in-flight ring,
mirroring the style of ``tests/flits/test_encoding.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flits.destset import DestinationSet
from repro.flits.flit import Flit
from repro.flits.packed import SpanQueue, flit_repr
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm


def make_worm(
    universe: int = 16,
    destination_ids=(1,),
    header_flits: int = 1,
    payload_flits: int = 4,
    source: int = 0,
    packet_id: int = 0,
) -> Worm:
    destinations = DestinationSet.from_ids(universe, destination_ids)
    message = Message(
        0, source, destinations, payload_flits, TrafficClass.UNICAST, 0
    )
    packet = Packet(
        packet_id, message, destinations, header_flits, payload_flits
    )
    return Worm.root(packet)


#: a worm of varying destination-set shape (singleton through broadcast),
#: header length and payload length — every flit-kind combination
def worms():
    return st.integers(2, 5).flatmap(  # universe = 2**k hosts
        lambda k: st.builds(
            make_worm,
            universe=st.just(2 ** k),
            destination_ids=st.lists(
                st.integers(1, 2 ** k - 1), min_size=1,
                max_size=2 ** k - 1, unique=True,
            ),
            header_flits=st.integers(1, 4),
            payload_flits=st.integers(1, 12),
            packet_id=st.integers(0, 2 ** 20),
        )
    )


class TestFlitRepr:
    @given(worm=worms())
    @settings(max_examples=40, deadline=None)
    def test_repr_matches_object_flit(self, worm):
        for index in range(worm.size_flits):
            assert flit_repr(worm, index) == repr(Flit(worm, index))


class TestSpanQueue:
    """Laws of the in-flight ring: merge, grow, partial take."""

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=20),
        base=st.integers(0, 50),
        capacity=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguous_pushes_drain_as_one_ordered_stream(
        self, sizes, base, capacity
    ):
        # split one worm into contiguous chunks pushed with the
        # consecutive-arrival contract: they must merge into a single
        # record and drain, flit by flit, at exactly their arrival cycles
        total = sum(sizes)
        worm = make_worm(payload_flits=max(total, 1))
        queue = SpanQueue(capacity)
        start = 0
        for size in sizes:
            queue.push_span(base + start, worm, start, size)
            start += size
        assert len(queue) == total
        assert queue.records == 1  # merged
        assert not queue.has_arrived(base - 1)
        got = []
        now = base
        while len(queue):
            assert queue.has_arrived(now)
            span = queue.take(now, limit=1)
            assert span is not None
            got_worm, got_start, got_count = span
            assert got_worm is worm and got_count == 1
            got.append(got_start)
            now += 1
        assert got == list(range(total))
        assert queue.take(now) is None

    @given(worm_count=st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_distinct_worms_never_merge_and_grow_preserves_order(
        self, worm_count
    ):
        queue = SpanQueue(2)  # force _grow along the way
        worms_ = [make_worm(packet_id=i) for i in range(worm_count)]
        for position, worm in enumerate(worms_):
            queue.push_span(position, worm, 0, 1)
        assert queue.records == worm_count
        drained = []
        for now in range(worm_count):
            drained.append(queue.take(now)[0])
        assert drained == worms_

    def test_partial_take_advances_the_span_in_place(self):
        worm = make_worm(payload_flits=8)
        queue = SpanQueue()
        queue.push_span(10, worm, 0, 5)  # flits 0..4 arrive cycles 10..14
        assert queue.take(9) is None  # nothing matured yet
        assert queue.take(12) == (worm, 0, 3)  # arrived prefix only
        assert len(queue) == 2
        assert not queue.has_arrived(12)  # remainder matures later
        assert queue.take(12, limit=4) is None
        assert queue.take(14) == (worm, 3, 2)
        assert len(queue) == 0

    def test_limit_caps_an_arrived_span(self):
        worm = make_worm(payload_flits=8)
        queue = SpanQueue()
        queue.push_span(0, worm, 0, 4)
        assert queue.take(100, limit=3) == (worm, 0, 3)
        assert queue.take(100) == (worm, 3, 1)

    def test_non_positive_span_rejected(self):
        worm = make_worm()
        with pytest.raises(ValueError):
            SpanQueue().push_span(0, worm, 0, 0)


class TestRecords:
    """``take_record`` hands the oldest record over whole once its head
    has landed; everything that reads the queue must behave as if it
    held one entry per flit and each flit left it on the cycle it
    lands."""

    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(
                    ("continue", "gap", "worm", "record", "part", "prefix")
                ),
                st.integers(0, 3),
                st.integers(1, 6),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_records_behave_as_one_entry_per_flit(self, operations):
        queue = SpanQueue(2)
        worms_ = [make_worm(payload_flits=400, packet_id=0)]
        queued = []  # (arrival, worm, index) of every flit not taken
        taken = []  # arrival of every flit taken
        free = 0  # next free arrival cycle: the wire carries a flit a cycle
        index = 0  # next flit of the newest worm
        now = 0

        def head_record():
            """The maximal run of entries that continue the oldest one:
            the same worm, the next index, the next cycle."""
            run = queued[:1]
            for entry in queued[1:]:
                arrival, worm, member = run[-1]
                if entry != (arrival + 1, worm, member + 1):
                    break
                run.append(entry)
            return run

        for kind, advance, count in operations:
            now += advance
            if kind in ("continue", "gap", "worm"):
                # a send continues the newest record, leaves a gap on
                # the wire, or starts the next worm
                if kind == "worm":
                    worms_.append(make_worm(
                        payload_flits=400, packet_id=len(worms_)
                    ))
                    index = 0
                arrival = max(free, now + 1) + (kind == "gap")
                queue.push_span(arrival, worms_[-1], index, count)
                queued.extend(
                    (arrival + j, worms_[-1], index + j) for j in range(count)
                )
                free, index = arrival + count, index + count
            else:
                if kind == "record":
                    span = queue.take_record(now)
                    expect = head_record()
                elif kind == "part":
                    span = queue.take_record(now, count)
                    expect = head_record()[:count]
                else:
                    span = queue.take(now)
                    expect = [e for e in head_record() if e[0] <= now]
                if not queued or queued[0][0] > now:
                    # a record whose head has not landed is not handed over
                    assert span is None
                else:
                    arrival, worm, start = expect[0]
                    assert span == (worm, start, len(expect))
                    if kind != "prefix":
                        assert queue.landing == expect[-1][0]
                    taken.extend(entry[0] for entry in expect)
                    del queued[:len(expect)]
            assert len(queue) == len(queued)
            assert queue.has_arrived(now) == bool(
                queued and queued[0][0] <= now
            )
            for cycle in (now, now + 1, now + 4):
                assert queue.arrived(cycle) == sum(
                    1 for arrival, _, _ in queued if arrival <= cycle
                )
                assert queue.flying(cycle) == sum(
                    1 for arrival, _, _ in queued if arrival > cycle
                ) + sum(1 for arrival in taken if arrival > cycle)

    def test_a_send_that_continues_a_taken_record_is_a_record_of_its_own(
        self,
    ):
        worm = make_worm(payload_flits=16)
        queue = SpanQueue()
        queue.push_span(10, worm, 0, 4)
        queue.push_span(14, worm, 4, 2)  # merged: still queued
        assert queue.records == 1
        assert queue.take_record(9) is None
        assert queue.take_record(10) == (worm, 0, 6)
        assert (queue.landing, queue.flying(12)) == (15, 3)
        queue.push_span(16, worm, 6, 2)  # contiguous, but the record left
        assert queue.records == 1 and queue.head() == (16, worm, 6, 2)
        assert queue.take_record(15) is None
        assert queue.flying(15) == 2
        assert queue.take_record(16, limit=0) is None
        assert queue.take_record(16, limit=1) == (worm, 6, 1)
        # the rest is a record under the same rule: its head lands at 17
        assert queue.take_record(16) is None
        assert queue.take_record(17) == (worm, 7, 1)
