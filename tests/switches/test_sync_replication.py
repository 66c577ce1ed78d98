"""Synchronous replication on the input-buffer switch (paper §3)."""

from __future__ import annotations

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.errors import ConfigurationError
from repro.flits.destset import DestinationSet
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.switches.base import ReplicationMode


def sync_config(**overrides):
    defaults = dict(
        num_hosts=8,
        arity=8,
        switch_architecture=SwitchArchitecture.INPUT_BUFFER,
        replication=ReplicationMode.SYNCHRONOUS,
        max_packet_payload_flits=64,
        sw_send_overhead=0,
        sw_recv_overhead=0,
        self_check=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def schedule_unicast(network, cycle, source, dest, payload):
    network.sim.schedule_at(
        cycle, lambda: network.nodes[source].post_unicast(dest, payload)
    )


def schedule_multicast(network, cycle, source, dest_ids, payload):
    dset = DestinationSet.from_ids(network.num_hosts, dest_ids)
    network.sim.schedule_at(
        cycle,
        lambda: network.nodes[source].post_multicast(
            dset, payload, MulticastScheme.HARDWARE
        ),
    )


def run_to_quiescence(network, max_cycles=60_000):
    network.sim.run_until(
        lambda: network.collector.outstanding_messages == 0
        and network.collector.messages_created > 0,
        max_cycles=max_cycles,
        stall_limit=10_000,
    )


class TestConfiguration:
    def test_rejected_on_central_buffer(self):
        config = SimulationConfig(
            num_hosts=16,
            switch_architecture=SwitchArchitecture.CENTRAL_BUFFER,
            replication=ReplicationMode.SYNCHRONOUS,
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_accepted_on_input_buffer(self):
        sync_config().validate()


class TestLockstepDelivery:
    def test_multicast_delivers_everywhere(self):
        network = build_network(sync_config())
        schedule_multicast(network, 0, 0, [1, 3, 5, 7], payload=24)
        run_to_quiescence(network)
        (op,) = network.collector.completed_operations()
        assert sorted(op.arrival_cycles) == [1, 3, 5, 7]

    def test_branches_arrive_simultaneously(self):
        """Lock-step forwarding: all destinations receive the tail in the
        same cycle (same-depth branches on a single switch)."""
        network = build_network(sync_config())
        schedule_multicast(network, 0, 0, [2, 4, 6], payload=24)
        run_to_quiescence(network)
        (op,) = network.collector.completed_operations()
        assert len(set(op.arrival_cycles.values())) == 1

    def test_blocked_branch_stalls_siblings(self):
        """The defining cost: asynchronous siblings finish early; in
        lock-step, one congested destination delays all of them."""
        def arrivals(replication):
            config = sync_config(replication=replication)
            network = build_network(config)
            schedule_unicast(network, 0, 6, 7, payload=200)  # congests 7
            schedule_multicast(network, 5, 0, [1, 2, 7], payload=16)
            run_to_quiescence(network)
            (op,) = network.collector.completed_operations()
            return op.arrival_cycles

        async_arrivals = arrivals(ReplicationMode.ASYNCHRONOUS)
        sync_arrivals = arrivals(ReplicationMode.SYNCHRONOUS)
        # asynchronous: hosts 1 and 2 beat the congested host 7
        assert async_arrivals[1] < async_arrivals[7]
        # synchronous: everybody waits for the slow branch
        assert sync_arrivals[1] == sync_arrivals[7]
        assert sync_arrivals[1] > async_arrivals[1]

    def test_unicast_unaffected_by_mode(self):
        def latency(replication):
            config = sync_config(replication=replication)
            network = build_network(config)
            schedule_unicast(network, 0, 0, 5, payload=32)
            run_to_quiescence(network)
            from repro.flits.packet import TrafficClass
            return network.collector.classes[
                TrafficClass.UNICAST
            ].latency.mean

        assert latency(ReplicationMode.SYNCHRONOUS) == latency(
            ReplicationMode.ASYNCHRONOUS
        )


def committed_spans(network):
    """Every ``send_span`` call the switches of ``network`` make."""
    calls = []
    for switch in network.switches:
        for link in switch.out_links:
            if link is None:
                continue

            def logged(now, worm, start, count, _send=link.send_span):
                calls.append((now, worm, start, count))
                _send(now, worm, start, count)

            link.send_span = logged
    return calls


class TestNoRunsInLockstep:
    def test_lockstep_branches_never_commit_a_run(self):
        # a run is committed when nothing else can delay it; in
        # lock-step every sibling's credits can, every cycle
        network = build_network(sync_config())
        calls = committed_spans(network)
        schedule_multicast(network, 0, 0, [1, 3, 5, 7], payload=24)
        run_to_quiescence(network)
        assert calls == []

    def test_a_unicast_has_nobody_to_keep_in_step_with(self):
        network = build_network(sync_config())
        calls = committed_spans(network)
        schedule_unicast(network, 0, 0, 5, payload=32)
        run_to_quiescence(network)
        assert [count for _, _, _, count in calls] == [32]  # tail excluded


class TestArbitration:
    def test_concurrent_multicasts_serialize_but_complete(self):
        """The replication token admits one worm's port accumulation at a
        time, preventing the hold-and-wait deadlock of naive synchronous
        replication."""
        network = build_network(sync_config())
        # two worms with crossing port sets: the classic cyclic-wait setup
        schedule_multicast(network, 0, 0, [4, 5], payload=48)
        schedule_multicast(network, 0, 1, [5, 4], payload=48)
        run_to_quiescence(network)
        assert len(network.collector.completed_operations()) == 2

    def test_many_overlapping_worms_drain(self):
        network = build_network(sync_config())
        for source in range(4):
            schedule_multicast(
                network, source, source, [4, 5, 6, 7], payload=32
            )
        run_to_quiescence(network)
        assert len(network.collector.completed_operations()) == 4

    def test_multihop_sync_multicast(self):
        """Lock-step replication across a multi-level BMIN."""
        config = sync_config(num_hosts=16, arity=4)
        network = build_network(config)
        schedule_multicast(network, 0, 0, [3, 7, 12], payload=24)
        run_to_quiescence(network)
        (op,) = network.collector.completed_operations()
        assert sorted(op.arrival_cycles) == [3, 7, 12]
