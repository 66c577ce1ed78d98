"""Messages, packets, worms and flits."""

from __future__ import annotations

import pytest

from repro.flits.destset import DestinationSet
from repro.flits.encoding import BitStringEncoding
from repro.flits.flit import Flit
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm


def make_message(payload=32, dests=(1, 2, 3), universe=16, source=0):
    return Message(
        message_id=0,
        source=source,
        destinations=DestinationSet.from_ids(universe, dests),
        payload_flits=payload,
        traffic_class=TrafficClass.MULTICAST,
        created_cycle=0,
    )


class TestMessage:
    def test_rejects_empty_destinations(self):
        with pytest.raises(ValueError):
            make_message(dests=())

    def test_rejects_self_destination(self):
        with pytest.raises(ValueError):
            make_message(dests=(0, 1), source=0)

    def test_rejects_zero_payload(self):
        with pytest.raises(ValueError):
            make_message(payload=0)

    def test_segmentation_single_packet(self):
        msg = make_message(payload=32)
        enc = BitStringEncoding(16)
        (packet,) = msg.segment(enc, max_payload_flits=128, first_packet_id=5)
        assert packet.packet_id == 5
        assert packet.payload_flits == 32
        assert packet.is_last
        assert packet.header_flits == enc.header_flits(msg.destinations)

    def test_segmentation_splits_and_numbers(self):
        msg = make_message(payload=100)
        packets = msg.segment(BitStringEncoding(16), 40, first_packet_id=0)
        assert [p.payload_flits for p in packets] == [40, 40, 20]
        assert [p.packet_id for p in packets] == [0, 1, 2]
        assert [p.sequence for p in packets] == [0, 1, 2]
        assert [p.is_last for p in packets] == [False, False, True]

    def test_segment_preserves_total_payload(self):
        msg = make_message(payload=77)
        packets = msg.segment(BitStringEncoding(16), 16, 0)
        assert sum(p.payload_flits for p in packets) == 77


class TestPacket:
    def test_size_and_source(self):
        msg = make_message(payload=10)
        packet = Packet(0, msg, msg.destinations, header_flits=2,
                        payload_flits=10)
        assert packet.size_flits == 12
        assert packet.source == 0
        assert packet.is_multidestination
        assert packet.traffic_class is TrafficClass.MULTICAST

    def test_rejects_bad_sizes(self):
        msg = make_message()
        with pytest.raises(ValueError):
            Packet(0, msg, msg.destinations, header_flits=0, payload_flits=1)
        with pytest.raises(ValueError):
            Packet(0, msg, msg.destinations, header_flits=1, payload_flits=0)


class TestWorm:
    def make_worm(self):
        msg = make_message(payload=6, dests=(1, 2, 3))
        packet = Packet(0, msg, msg.destinations, header_flits=2,
                        payload_flits=6)
        return Worm.root(packet)

    def test_root_carries_full_destinations(self):
        worm = self.make_worm()
        assert worm.destinations == worm.packet.destinations
        assert not worm.descending

    def test_branch_subsets(self):
        worm = self.make_worm()
        sub = DestinationSet.from_ids(16, [1, 2])
        child = worm.branch(sub, descending=True)
        assert child.destinations == sub
        assert child.descending
        assert child.packet is worm.packet

    def test_branch_must_be_subset(self):
        worm = self.make_worm()
        with pytest.raises(ValueError):
            worm.branch(DestinationSet.from_ids(16, [9]), descending=True)

    def test_branch_must_be_nonempty(self):
        worm = self.make_worm()
        with pytest.raises(ValueError):
            worm.branch(DestinationSet.empty(16), descending=True)

    def test_singleton_branch_is_not_multidestination(self):
        worm = self.make_worm()
        child = worm.branch(DestinationSet.single(16, 2), True)
        assert worm.is_multidestination
        assert not child.is_multidestination


class TestFlit:
    def make_worm(self, header=2, payload=4):
        msg = make_message(payload=payload)
        packet = Packet(0, msg, msg.destinations, header, payload)
        return Worm.root(packet)

    def test_kinds(self):
        worm = self.make_worm(header=2, payload=4)
        flits = [Flit(worm, i) for i in range(worm.size_flits)]
        assert flits[0].is_head and flits[0].is_header
        assert flits[1].is_header and not flits[1].is_head
        assert not flits[2].is_header
        assert flits[-1].is_tail
        assert not any(f.is_tail for f in flits[:-1])

    def test_index_bounds(self):
        worm = self.make_worm()
        with pytest.raises(ValueError):
            Flit(worm, worm.size_flits)
        with pytest.raises(ValueError):
            Flit(worm, -1)

    def test_equality_is_per_worm(self):
        worm = self.make_worm()
        sibling = worm.branch(DestinationSet.single(16, 1), True)
        assert Flit(worm, 0) == Flit(worm, 0)
        assert Flit(worm, 0) != Flit(sibling, 0)
        assert Flit(worm, 0) != Flit(worm, 1)

    def test_packet_passthrough(self):
        worm = self.make_worm()
        assert Flit(worm, 0).packet is worm.packet
