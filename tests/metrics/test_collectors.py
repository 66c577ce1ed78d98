"""Metrics collector: delivery accounting and sampling windows."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, Packet, TrafficClass
from repro.metrics.collectors import MetricsCollector


def make_message(collector, source, dest_ids, payload=8, created=0,
                 traffic_class=TrafficClass.UNICAST, op_id=None, universe=16):
    message = Message(
        message_id=collector.new_message_id(),
        source=source,
        destinations=DestinationSet.from_ids(universe, dest_ids),
        payload_flits=payload,
        traffic_class=traffic_class,
        created_cycle=created,
        op_id=op_id,
    )
    return message


def packet_of(message, sequence=0, is_last=True):
    return Packet(
        packet_id=sequence,
        message=message,
        destinations=message.destinations,
        header_flits=1,
        payload_flits=message.payload_flits,
        sequence=sequence,
        is_last=is_last,
    )


class TestMessageAccounting:
    def test_single_packet_delivery(self):
        collector = MetricsCollector(16)
        message = make_message(collector, 0, [3], created=10)
        collector.register_message(message, expected_packets=1)
        assert collector.outstanding_messages == 1
        done = collector.packet_delivered(packet_of(message), host=3, now=60)
        assert done
        assert collector.outstanding_messages == 0
        stats = collector.classes[TrafficClass.UNICAST]
        assert stats.deliveries == 1
        assert stats.latency.mean == 50

    def test_multi_packet_needs_all_packets(self):
        collector = MetricsCollector(16)
        message = make_message(collector, 0, [3])
        collector.register_message(message, expected_packets=3)
        assert not collector.packet_delivered(packet_of(message, 0), 3, 20)
        assert not collector.packet_delivered(packet_of(message, 1), 3, 30)
        assert collector.packet_delivered(packet_of(message, 2), 3, 40)

    def test_multicast_message_counts_per_destination(self):
        collector = MetricsCollector(16)
        message = make_message(
            collector, 0, [1, 2], traffic_class=TrafficClass.MULTICAST
        )
        collector.register_message(message, 1)
        assert collector.packet_delivered(packet_of(message), 1, 15)
        assert collector.outstanding_messages == 1
        assert collector.packet_delivered(packet_of(message), 2, 25)
        assert collector.outstanding_messages == 0
        assert collector.classes[TrafficClass.MULTICAST].deliveries == 2

    def test_duplicate_delivery_rejected(self):
        collector = MetricsCollector(16)
        message = make_message(collector, 0, [3])
        collector.register_message(message, 1)
        collector.packet_delivered(packet_of(message), 3, 20)
        with pytest.raises(ProtocolError):
            collector.packet_delivered(packet_of(message), 3, 21)

    def test_unregistered_message_rejected(self):
        collector = MetricsCollector(16)
        message = make_message(collector, 0, [3])
        with pytest.raises(ProtocolError):
            collector.packet_delivered(packet_of(message), 3, 0)

    def test_wrong_host_rejected(self):
        collector = MetricsCollector(16)
        message = make_message(collector, 0, [3])
        collector.register_message(message, 1)
        with pytest.raises(ProtocolError):
            collector.packet_delivered(packet_of(message), 5, 0)

    def test_double_registration_rejected(self):
        collector = MetricsCollector(16)
        message = make_message(collector, 0, [3])
        collector.register_message(message, 1)
        with pytest.raises(ProtocolError):
            collector.register_message(message, 1)


class TestSampleWindow:
    def test_out_of_window_not_sampled(self):
        collector = MetricsCollector(16)
        collector.set_sample_window(100, 200)
        early = make_message(collector, 0, [3], created=50)
        collector.register_message(early, 1)
        collector.packet_delivered(packet_of(early), 3, 140)
        inside = make_message(collector, 0, [4], created=150)
        collector.register_message(inside, 1)
        collector.packet_delivered(packet_of(inside), 4, 190)
        late = make_message(collector, 0, [5], created=250)
        collector.register_message(late, 1)
        collector.packet_delivered(packet_of(late), 5, 260)
        stats = collector.classes[TrafficClass.UNICAST]
        assert stats.deliveries == 1
        assert stats.latency.mean == 40

    def test_window_applies_to_operations(self):
        collector = MetricsCollector(16)
        collector.set_sample_window(100)
        op = collector.register_operation(
            0, DestinationSet.from_ids(16, [1]), 8, "hardware",
            created_cycle=50,
        )
        message = make_message(
            collector, 0, [1], created=50,
            traffic_class=TrafficClass.MULTICAST, op_id=op.op_id,
        )
        collector.register_message(message, 1)
        collector.packet_delivered(packet_of(message), 1, 120)
        assert op.completed_cycle == 120
        assert collector.op_last_latency.count == 0  # created before window


class TestOperations:
    def make_op(self, collector, dest_ids=(1, 2, 3), created=0):
        return collector.register_operation(
            0, DestinationSet.from_ids(16, dest_ids), 8, "hardware", created
        )

    def test_completion_and_latencies(self):
        collector = MetricsCollector(16)
        op = self.make_op(collector, (1, 2), created=10)
        assert not op.record_arrival(1, 30)
        assert op.record_arrival(2, 50)
        assert op.last_latency == 40
        assert op.average_latency == pytest.approx(30.0)

    def test_duplicate_arrival_rejected(self):
        collector = MetricsCollector(16)
        op = self.make_op(collector)
        op.record_arrival(1, 5)
        with pytest.raises(ProtocolError):
            op.record_arrival(1, 6)

    def test_non_member_arrival_rejected(self):
        collector = MetricsCollector(16)
        op = self.make_op(collector)
        with pytest.raises(ProtocolError):
            op.record_arrival(9, 5)

    def test_outstanding_operations(self):
        collector = MetricsCollector(16)
        op = self.make_op(collector, (1,))
        assert collector.outstanding_operations == 1
        op.record_arrival(1, 5)
        assert collector.outstanding_operations == 0
        assert collector.completed_operations() == [op]

    def test_operation_lookup(self):
        collector = MetricsCollector(16)
        op = self.make_op(collector)
        assert collector.operation(op.op_id) is op
        assert collector.operation(999) is None

    def test_incomplete_latencies_are_none(self):
        collector = MetricsCollector(16)
        op = self.make_op(collector)
        assert op.last_latency is None
        assert op.average_latency is None
