"""Central-buffer switch behaviour on a single-switch micro network."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.flits.destset import DestinationSet
from repro.flits.packet import TrafficClass
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.sim.trace import Tracer
from repro.switches.chunks import BranchCursor, StoredPacket


def one_switch_config(**overrides):
    """8 hosts on one 8-port switch, zero software overhead, checks on."""
    defaults = dict(
        num_hosts=8,
        arity=8,
        switch_architecture=SwitchArchitecture.CENTRAL_BUFFER,
        max_packet_payload_flits=64,
        sw_send_overhead=0,
        sw_recv_overhead=0,
        self_check=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def build(config, trace=False):
    tracer = Tracer() if trace else None
    network = build_network(config, tracer=tracer)
    return network, tracer


def schedule_unicast(network, cycle, source, dest, payload):
    network.sim.schedule_at(
        cycle, lambda: network.nodes[source].post_unicast(dest, payload)
    )


def schedule_multicast(network, cycle, source, dest_ids, payload,
                       scheme=MulticastScheme.HARDWARE):
    dset = DestinationSet.from_ids(network.num_hosts, dest_ids)
    network.sim.schedule_at(
        cycle,
        lambda: network.nodes[source].post_multicast(dset, payload, scheme),
    )


def run_to_quiescence(network, max_cycles=20_000):
    network.sim.run_until(
        lambda: network.collector.outstanding_messages == 0
        and network.collector.messages_created > 0,
        max_cycles=max_cycles,
        stall_limit=5_000,
    )


class TestUnicastPaths:
    def test_idle_output_uses_bypass(self):
        network, tracer = build(one_switch_config(), trace=True)
        schedule_unicast(network, 0, 0, 5, payload=8)
        run_to_quiescence(network)
        counts = tracer.counts()
        assert counts.get("bypass", 0) == 1
        assert "queue_cb" not in counts

    def test_busy_output_queues_in_central_buffer(self):
        network, tracer = build(one_switch_config(), trace=True)
        schedule_unicast(network, 0, 0, 5, payload=64)
        schedule_unicast(network, 10, 1, 5, payload=64)
        run_to_quiescence(network)
        counts = tracer.counts()
        assert counts.get("bypass") == 1
        assert counts.get("queue_cb") == 1

    def test_deliveries_in_arrival_order_per_output(self):
        network, _ = build(one_switch_config())
        schedule_unicast(network, 0, 0, 5, payload=64)
        schedule_unicast(network, 10, 1, 5, payload=8)
        run_to_quiescence(network)
        stats = network.collector.classes[TrafficClass.UNICAST]
        assert stats.deliveries == 2

    def test_switch_returns_to_idle(self):
        network, _ = build(one_switch_config())
        schedule_unicast(network, 0, 0, 5, payload=16)
        schedule_unicast(network, 3, 2, 6, payload=16)
        run_to_quiescence(network)
        network.sim.run(10)
        (switch,) = network.switches
        assert switch.idle()
        assert switch.pool.used_chunks == 0

    def test_non_head_packet_not_blocked_by_busy_output(self):
        """The CB design drains a blocked packet out of the input FIFO,
        freeing the path for the packet behind it."""
        network, _ = build(one_switch_config())
        schedule_unicast(network, 0, 0, 5, payload=120)  # occupies output 5
        schedule_unicast(network, 5, 1, 5, payload=120)  # queues in CB
        schedule_unicast(network, 6, 1, 6, payload=8)    # behind it, free output
        run_to_quiescence(network)
        # The small packet must finish long before the queued long one.
        ops = network.collector.classes[TrafficClass.UNICAST]
        assert ops.deliveries == 3


class TestMulticastReplication:
    def test_worm_delivered_to_every_destination(self):
        network, tracer = build(one_switch_config(), trace=True)
        dests = [1, 2, 4, 6, 7]
        schedule_multicast(network, 0, 0, dests, payload=16)
        run_to_quiescence(network)
        (op,) = network.collector.completed_operations()
        assert sorted(op.arrival_cycles) == dests
        assert tracer.counts().get("admit_multidest") == 1

    def test_each_destination_gets_whole_packet(self):
        network, _ = build(one_switch_config())
        dests = [2, 3, 4]
        schedule_multicast(network, 0, 1, dests, payload=16)
        run_to_quiescence(network)
        header = network.encoding.header_flits(
            DestinationSet.from_ids(8, dests)
        )
        for dest in dests:
            assert network.interfaces[dest].flits_ejected == 16 + header

    def test_chunks_fully_released_after_drain(self):
        network, _ = build(one_switch_config())
        schedule_multicast(network, 0, 0, [1, 2, 3, 4, 5, 6, 7], payload=64)
        run_to_quiescence(network)
        (switch,) = network.switches
        assert switch.pool.free_chunks == switch.pool.capacity_chunks

    def test_slow_branch_does_not_block_fast_branches(self):
        """Asynchronous replication: one congested destination must not
        delay the others by more than queueing on its own link."""
        network, _ = build(one_switch_config())
        # keep output 7 busy with a long unicast first
        schedule_unicast(network, 0, 6, 7, payload=200)
        schedule_multicast(network, 5, 0, [1, 2, 7], payload=16)
        run_to_quiescence(network)
        (op,) = network.collector.completed_operations()
        fast_arrivals = [op.arrival_cycles[d] for d in (1, 2)]
        slow_arrival = op.arrival_cycles[7]
        assert max(fast_arrivals) < slow_arrival

    def test_two_concurrent_multicasts_complete(self):
        network, _ = build(one_switch_config())
        schedule_multicast(network, 0, 0, [2, 3, 4], payload=32)
        schedule_multicast(network, 0, 1, [5, 6, 7], payload=32)
        run_to_quiescence(network)
        assert len(network.collector.completed_operations()) == 2

    def test_overlapping_multicasts_share_outputs(self):
        network, _ = build(one_switch_config())
        schedule_multicast(network, 0, 0, [3, 4, 5], payload=32)
        schedule_multicast(network, 0, 1, [3, 4, 5], payload=32)
        run_to_quiescence(network)
        ops = network.collector.completed_operations()
        assert len(ops) == 2
        for op in ops:
            assert sorted(op.arrival_cycles) == [3, 4, 5]


class TestBandwidthLimits:
    @pytest.mark.parametrize("bandwidth", [1, 2, 4])
    def test_reduced_cb_bandwidth_still_correct(self, bandwidth):
        network, _ = build(
            one_switch_config(
                cb_write_bandwidth=bandwidth, cb_read_bandwidth=bandwidth
            )
        )
        schedule_multicast(network, 0, 0, [1, 2, 3, 4, 5], payload=32)
        schedule_unicast(network, 0, 6, 7, payload=32)
        run_to_quiescence(network)
        assert len(network.collector.completed_operations()) == 1

    def test_lower_bandwidth_is_slower(self):
        def completion(bandwidth):
            network, _ = build(
                one_switch_config(
                    cb_write_bandwidth=bandwidth,
                    cb_read_bandwidth=bandwidth,
                )
            )
            # two multicasts through the CB to make bandwidth matter
            schedule_multicast(network, 0, 0, [2, 3, 4, 5], payload=64)
            schedule_multicast(network, 0, 1, [2, 3, 4, 5], payload=64)
            run_to_quiescence(network)
            ops = network.collector.completed_operations()
            return max(op.completed_cycle for op in ops)

        assert completion(1) > completion(8)


class TestBackpressure:
    def test_tiny_central_buffer_rejected_by_config(self):
        with pytest.raises(Exception):
            one_switch_config(
                central_buffer_flits=64, max_packet_payload_flits=128
            ).validate()

    def test_quota_only_buffer_multicasts_complete(self):
        # 8 hosts: max packet = 2 + 64 = 66 flits = 9 chunks; 16 ports
        # (radix 16 switch for arity 8) * 9 chunks * 8 = 1152 flits.
        network, _ = build(
            one_switch_config(
                central_buffer_flits=1152,
                chunk_flits=8,
                max_packet_payload_flits=64,
            )
        )
        for source in range(4):
            schedule_multicast(
                network, 0, source, [5, 6, 7], payload=64
            )
        run_to_quiescence(network)
        assert len(network.collector.completed_operations()) == 4

    def test_back_to_back_multidest_same_input_serialize(self):
        """Two multicasts from one host share that input's quota: the
        second is admitted only as the first drains."""
        network, tracer = build(
            one_switch_config(
                central_buffer_flits=1152,
                chunk_flits=8,
                max_packet_payload_flits=64,
            ),
            trace=True,
        )
        schedule_multicast(network, 0, 0, [3, 4, 5], payload=64)
        schedule_multicast(network, 1, 0, [3, 4, 5], payload=64)
        run_to_quiescence(network)
        assert len(network.collector.completed_operations()) == 2


class TestPipelineTiming:
    def test_cut_through_starts_before_tail_arrives(self):
        """Wormhole: the head leaves the switch while the tail is still
        arriving (latency far below store-and-forward)."""
        network, _ = build(one_switch_config())
        schedule_unicast(network, 0, 0, 5, payload=60)
        run_to_quiescence(network)
        stats = network.collector.classes[TrafficClass.UNICAST]
        # store-and-forward would be ~2x the serialization delay
        packet_flits = 61
        assert stats.latency.mean < 1.6 * packet_flits

    def test_routing_delay_adds_per_switch_latency(self):
        def latency(routing_delay):
            network, _ = build(one_switch_config(routing_delay=routing_delay))
            schedule_unicast(network, 0, 0, 5, payload=16)
            run_to_quiescence(network)
            return network.collector.classes[TrafficClass.UNICAST].latency.mean

        assert latency(10) == latency(0) + 10

    def test_link_latency_adds_per_hop(self):
        """A tiny packet (no credit-throttling effects) pays exactly one
        extra cycle per link per unit of link latency."""
        def latency(link_latency):
            config = SimulationConfig(
                num_hosts=16, link_latency=link_latency,
                sw_send_overhead=0, self_check=True,
            )
            network = build_network(config)
            # 0 -> 15 crosses 3 switches, 4 links
            schedule_unicast(network, 0, 0, 15, payload=1)
            run_to_quiescence(network)
            return network.collector.classes[TrafficClass.UNICAST].latency.mean

        assert latency(3) == latency(1) + 2 * 4

    def test_long_links_throttle_long_packets_at_the_ni(self):
        """With 3-cycle links the NI's 4-credit receive FIFO cannot cover
        the credit round trip, so long packets serialize slower — the
        buffering-vs-latency coupling real adapters face."""
        def latency(link_latency, payload):
            config = SimulationConfig(
                num_hosts=16, link_latency=link_latency, sw_send_overhead=0,
            )
            network = build_network(config)
            schedule_unicast(network, 0, 0, 15, payload=payload)
            run_to_quiescence(network)
            return network.collector.classes[TrafficClass.UNICAST].latency.mean

        head_delta = latency(3, 1) - latency(1, 1)
        long_delta = latency(3, 40) - latency(1, 40)
        assert long_delta > head_delta


class TestNoGarbage:
    """Stored packets, their branch cursors, the per-chunk crossing
    records and the pool's dated releases form no reference cycle: when
    the switches are idle again every one of them has been freed by
    reference count alone."""

    def test_packets_and_cursors_die_without_the_cyclic_collector(self):
        born = []

        def tracking(cls):
            init = cls.__init__

            def tracked(self, *args, **kwargs):
                init(self, *args, **kwargs)
                born.append(weakref.ref(self))

            cls.__init__ = tracked
            return init

        originals = {cls: tracking(cls) for cls in (StoredPacket, BranchCursor)}
        gc.collect()
        gc.disable()
        try:
            network = build_network(SimulationConfig(
                num_hosts=16, sw_send_overhead=0, sw_recv_overhead=0,
            ))
            for source in range(0, 16, 3):
                schedule_multicast(
                    network, source, source,
                    [d for d in range(16) if d % 3 != source % 3], payload=64,
                )
                # unicasts to one host: all but the first find the
                # output busy and go through the central buffer
                schedule_unicast(network, 2 * source, (source + 1) % 16, 9, 40)
            run_to_quiescence(network)
            network.sim.run(10)
            assert all(switch.idle() for switch in network.switches)
            kinds = {type(ref()) for ref in born}
            assert len(born) > 40 and kinds == {type(None)}, kinds
            for switch in network.switches:
                assert not switch.pool._releases
                assert switch.pool.free_chunks == switch.pool.capacity_chunks
        finally:
            gc.enable()
            for cls, init in originals.items():
                cls.__init__ = init
