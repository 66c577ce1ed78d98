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
