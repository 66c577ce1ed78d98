"""A network is cheap to build and free to drop.

Two pins that read no clock: a closed network is acyclic (dropping it
frees every object by reference count, so the cyclic collector finds
nothing), and one ``build_network`` adds a bounded number of GC-tracked
objects.
"""

from __future__ import annotations

import gc
import sys
import weakref
from contextlib import contextmanager

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.errors import SimulationError
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation, run_workload
from repro.routing.base import UpPortPolicy
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import RandomMulticastStream
from repro.traffic.unicast import UniformRandomUnicast


@contextmanager
def collector_off():
    """Start from a collected heap and keep the cyclic collector out of
    the way, so whatever dies inside dies by reference count."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# the three traffic shapes of the performance ledger, short windows
SHAPES = {
    "uniform": lambda: UniformRandomUnicast(
        load=0.9, payload_flits=16, warmup_cycles=50, measure_cycles=100,
    ),
    "hotspot": lambda: HotspotTraffic(
        load=0.5, hotspot_fraction=0.4, payload_flits=32,
        warmup_cycles=50, measure_cycles=150,
    ),
    "multicast": lambda: RandomMulticastStream(
        ops_per_host_per_kilocycle=1.0, degree=16, payload_flits=64,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=50, measure_cycles=200,
    ),
}


def drop(config, workload, close, **run_kwargs):
    """Run, summarise, optionally close, drop: what the collector then
    finds, and whether the simulator, a switch, a link and a node were
    already dead before it looked."""
    result = run_simulation(config, workload, **run_kwargs)
    result.to_summary()
    network = result.network
    watched = [
        weakref.ref(part)
        for part in (
            network.sim, network.switches[0], network.links[0],
            network.nodes[0],
        )
    ]
    if close:
        network.close()
    del result, network, workload
    dead = [ref() is None for ref in watched]
    return gc.collect(), dead


class TestNothingLeftForTheCollector:
    @pytest.mark.parametrize("architecture", list(SwitchArchitecture))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_closed_network_dies_by_reference_count(
        self, shape, architecture
    ):
        config = SimulationConfig(
            num_hosts=64, switch_architecture=architecture, seed=7
        )
        with collector_off():
            collected, dead = drop(config, SHAPES[shape](), close=True)
            assert collected == 0
            assert dead == [True] * 4
            # the same run, not closed, is cyclic: the assertion above
            # cannot pass because the cycles went some other way and one
            # of them came back
            collected, dead = drop(config, SHAPES[shape](), close=False)
            assert collected > 1_000
            assert dead == [False] * 4

    @pytest.mark.parametrize("policy", list(UpPortPolicy))
    def test_whatever_picks_the_up_ports(self, policy):
        config = SimulationConfig(num_hosts=16, up_port_policy=policy)
        with collector_off():
            collected, dead = drop(config, SHAPES["uniform"](), close=True)
            assert (collected, dead) == (0, [True] * 4)

    def test_a_run_cut_short_leaves_events_behind_and_still_dies(self):
        # the budget runs out mid-window: generator events and host CPU
        # completions are still on the calendar, their closures hold
        # nodes, and nodes hold the simulator
        with collector_off():
            result = run_simulation(
                SimulationConfig(num_hosts=16), SHAPES["uniform"](),
                max_cycles=60,
            )
            assert not result.completed
            assert result.network.sim.pending_events > 0
            sim = weakref.ref(result.network.sim)
            result.network.close()
            del result
            assert sim() is None
            assert gc.collect() == 0

    def test_software_multicast_schedules_are_no_garbage_either(self):
        workload = RandomMulticastStream(
            ops_per_host_per_kilocycle=1.0, degree=8, payload_flits=32,
            scheme=MulticastScheme.SOFTWARE,
            warmup_cycles=50, measure_cycles=200,
        )
        with collector_off():
            collected, _ = drop(
                SimulationConfig(num_hosts=16), workload, close=True
            )
            assert collected == 0


class TestClosed:
    def test_results_stay_readable_and_the_network_refuses_to_run(self):
        config = SimulationConfig(num_hosts=16, seed=3)
        result = run_simulation(config, SHAPES["uniform"]())
        network = result.network
        before = (result.summary(), result.cycles, network.sim.progress)
        sent = [link.flits_sent for link in network.links]
        network.close()
        network.close()  # twice is a no-op
        assert (result.summary(), result.cycles, network.sim.progress) == before
        assert [link.flits_sent for link in network.links] == sent
        assert network.quiescent()
        assert network.switches[0].pool.occupancy.average(result.cycles) >= 0
        with pytest.raises(SimulationError):
            network.sim.run(1)
        with pytest.raises(SimulationError):
            network.sim.run_until(lambda: True, max_cycles=1)
        with pytest.raises(SimulationError):
            run_workload(network, SHAPES["uniform"]())

    def test_closing_is_not_part_of_a_run(self):
        # run_workload leaves the network open: x1, x3 and e7 read
        # component state off it afterwards, and a test may run on
        config = SimulationConfig(num_hosts=16, seed=3)
        network = build_network(config)
        run_workload(network, SHAPES["uniform"]())
        network.sim.run(5)
        assert len(network.sim.components) == (
            len(network.switches) + len(network.interfaces)
        )


#: GC-tracked objects one ``build_network`` adds, recorded on CPython
#: 3.11 (the parent of the PR that added this test: 4 740 / 4 548 /
#: 24 612).  A count, not a time: it moves when someone puts a per-link
#: list, a per-link bound method or a per-switch closure back.
BUILD_BUDGET = {
    (64, SwitchArchitecture.CENTRAL_BUFFER): 4_499,
    (64, SwitchArchitecture.INPUT_BUFFER): 4_307,
    (256, SwitchArchitecture.CENTRAL_BUFFER): 23_331,
}


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 every instance __dict__ is a tracked object of "
    "its own; the budget was recorded on 3.11",
)
@pytest.mark.parametrize("num_hosts, architecture", sorted(
    BUILD_BUDGET, key=lambda key: (key[0], key[1].value)
))
def test_a_build_adds_a_bounded_number_of_tracked_objects(
    num_hosts, architecture
):
    config = SimulationConfig(
        num_hosts=num_hosts, switch_architecture=architecture
    )
    build_network(config)  # the structure is cached: not this build's
    with collector_off():
        before = len(gc.get_objects())
        network = build_network(config)
        added = len(gc.get_objects()) - before
    assert len(network.links) > num_hosts
    budget = BUILD_BUDGET[num_hosts, architecture]
    assert added <= budget * 1.10, (added, budget)
