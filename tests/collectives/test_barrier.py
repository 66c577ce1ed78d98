"""Tree collectives: barrier protocol, and the rig the other collective
tests share."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.barrier import ReleaseScheme, TreeCollectiveEngine
from repro.collectives.scatter import ScatterEngine
from repro.errors import ConfigurationError, ProtocolError
from repro.network.builder import build_network
from repro.network.config import SimulationConfig


def rig(num_hosts=16, seed=1, **overrides):
    config = SimulationConfig(num_hosts=num_hosts, seed=seed, **overrides)
    network = build_network(config)
    return network, TreeCollectiveEngine(network.nodes)


def run_collective(network, engine, operation, cycles, values=None):
    """Contribute each host at its cycle (with ``values[host]`` if
    given), then run to completion."""
    for host, cycle in cycles.items():
        value = None if values is None else values[host]
        network.sim.schedule_at(
            cycle, lambda h=host, v=value: engine.contribute(operation, h, v)
        )
    network.sim.run_until(
        lambda: operation.complete, max_cycles=300_000, stall_limit=30_000
    )
    return operation


class TestBarrierCompletion:
    @pytest.mark.parametrize("scheme", list(ReleaseScheme))
    def test_all_enter_together(self, scheme):
        network, engine = rig()
        operation = engine.barrier(list(range(16)), release=scheme)
        run_collective(network, engine, operation, {h: 0 for h in range(16)})
        assert operation.complete
        assert set(operation.release_cycles) == set(range(16))

    @pytest.mark.parametrize("scheme", list(ReleaseScheme))
    def test_straggler_gates_everyone(self, scheme):
        network, engine = rig()
        operation = engine.barrier(list(range(16)), release=scheme)
        enters = {h: 0 for h in range(16)}
        enters[11] = 2_000  # late arrival
        run_collective(network, engine, operation, enters)
        # nobody is released before the straggler entered
        assert min(operation.release_cycles.values()) > 2_000

    def test_subset_of_hosts(self):
        network, engine = rig()
        participants = [2, 5, 7, 11, 13]
        operation = engine.barrier(participants)
        run_collective(network, engine, operation, {h: 0 for h in participants})
        assert sorted(operation.release_cycles) == participants

    def test_two_party_barrier(self):
        network, engine = rig()
        operation = engine.barrier([3, 9])
        run_collective(network, engine, operation, {3: 0, 9: 50})
        assert operation.complete
        assert operation.last_latency > 0

    def test_consecutive_barriers_independent(self):
        network, engine = rig()
        first = engine.barrier(list(range(16)))
        run_collective(network, engine, first, {h: 0 for h in range(16)})
        second = engine.barrier(list(range(16)))
        start = network.sim.now
        run_collective(network, engine, second, {h: start for h in range(16)})
        assert second.complete
        assert second.completed_cycle > first.completed_cycle


class TestBarrierQuality:
    def test_hardware_release_faster_and_tighter(self):
        def measure(scheme):
            network, engine = rig(num_hosts=64, seed=5)
            operation = engine.barrier(list(range(64)), release=scheme)
            run_collective(
                network, engine, operation, {h: 0 for h in range(64)}
            )
            return operation.last_latency, operation.skew

        hw_latency, hw_skew = measure(ReleaseScheme.HARDWARE_MULTICAST)
        sw_latency, sw_skew = measure(ReleaseScheme.SOFTWARE_BROADCAST)
        assert hw_latency < sw_latency
        assert hw_skew < sw_skew

    def test_latency_includes_waiting_for_straggler(self):
        network, engine = rig()
        operation = engine.barrier(list(range(16)))
        enters = {h: 0 for h in range(16)}
        enters[7] = 5_000
        run_collective(network, engine, operation, enters)
        assert operation.last_latency > 5_000


class TestBarrierProtocolErrors:
    def test_non_participant_cannot_enter(self):
        network, engine = rig()
        operation = engine.barrier([1, 2, 3])
        with pytest.raises(ProtocolError):
            engine.contribute(operation, 9)

    def test_double_enter_rejected(self):
        network, engine = rig()
        operation = engine.barrier([1, 2, 3])
        engine.contribute(operation, 1)
        with pytest.raises(ProtocolError):
            engine.contribute(operation, 1)

    def test_too_few_participants(self):
        network, engine = rig()
        with pytest.raises(ConfigurationError):
            engine.barrier([4])


@pytest.mark.parametrize(
    "create",
    [
        lambda network, engine: engine.barrier([1, 1, 2]),
        lambda network, engine: engine.allreduce([1, 1, 2]),
        lambda network, engine: engine.gather([1, 1, 2]),
        lambda network, engine: ScatterEngine(network.nodes).create(1, [1, 1, 2]),
    ],
    ids=["barrier", "allreduce", "gather", "scatter"],
)
def test_duplicate_participants(create):
    """A repeated participant would be its own parent in the tree and
    the collective would never complete."""
    network, engine = rig()
    with pytest.raises(ConfigurationError):
        create(network, engine)


class TestBarrierProperties:
    @given(
        participants=st.sets(st.integers(0, 15), min_size=2, max_size=16),
        offsets=st.lists(st.integers(0, 300), min_size=16, max_size=16),
        scheme=st.sampled_from(list(ReleaseScheme)),
    )
    @settings(max_examples=20, deadline=None)
    def test_no_release_before_last_enter(self, participants, offsets, scheme):
        network, engine = rig(seed=7)
        participants = sorted(participants)
        operation = engine.barrier(participants, release=scheme)
        enters = {
            host: offsets[host] for host in participants
        }
        run_collective(network, engine, operation, enters)
        last_enter = max(enters.values())
        # the root may release itself in the very cycle it (last) enters;
        # every other participant strictly follows the last enter
        assert min(operation.release_cycles.values()) >= last_enter
        for host, released in operation.release_cycles.items():
            if host != operation.root:
                assert released > last_enter
        assert set(operation.release_cycles) == set(participants)


class TestBarrierUnderLoad:
    def test_barrier_completes_amid_background_traffic(self):
        """Barriers share the network with application traffic; the
        protocol must complete and still beat the software release."""
        from repro.traffic.bimodal import BimodalTraffic
        from repro.core.schemes import MulticastScheme

        def barrier_latency(release):
            network, engine = rig(num_hosts=16, seed=9)
            background = BimodalTraffic(
                load=0.3, multicast_fraction=0.1, degree=4,
                payload_flits=16, scheme=MulticastScheme.HARDWARE,
                warmup_cycles=0, measure_cycles=4_000,
            )
            background.start(network)
            operation = engine.barrier(list(range(16)), release=release)
            network.sim.schedule_at(
                500,
                lambda: [engine.contribute(operation, h) for h in range(16)],
            )
            network.sim.run_until(
                lambda: operation.complete,
                max_cycles=400_000,
                stall_limit=30_000,
            )
            return operation.last_latency

        hw = barrier_latency(ReleaseScheme.HARDWARE_MULTICAST)
        sw = barrier_latency(ReleaseScheme.SOFTWARE_BROADCAST)
        assert hw < sw

    def test_background_traffic_slows_the_barrier(self):
        from repro.traffic.unicast import UniformRandomUnicast

        def barrier_latency(load):
            network, engine = rig(num_hosts=16, seed=10)
            if load:
                UniformRandomUnicast(
                    load=load, payload_flits=16,
                    warmup_cycles=0, measure_cycles=4_000,
                ).start(network)
            operation = engine.barrier(list(range(16)))
            network.sim.schedule_at(
                400,
                lambda: [engine.contribute(operation, h) for h in range(16)],
            )
            network.sim.run_until(
                lambda: operation.complete,
                max_cycles=400_000,
                stall_limit=30_000,
            )
            return operation.last_latency

        assert barrier_latency(0.5) > barrier_latency(0.0)
