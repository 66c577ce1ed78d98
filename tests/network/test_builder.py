"""Network assembly."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.schemes import SwitchArchitecture
from repro.network import builder
from repro.network.builder import build_network
from repro.network.config import SimulationConfig, TopologyKind
from repro.host.interface import HostInterface
from repro.network.simulation import run_workload
from repro.sim.component import Component
from repro.switches.base import SwitchBase
from repro.switches.central_buffer import CentralBufferSwitch
from repro.switches.input_buffer import InputBufferSwitch
from repro.topology.graph import NodeKind
from repro.traffic.unicast import UniformRandomUnicast


class TestBuild:
    def test_component_counts(self):
        network = build_network(SimulationConfig(num_hosts=64))
        assert len(network.switches) == 48
        assert len(network.interfaces) == 64
        assert len(network.nodes) == 64
        # 64 host cables + 2 levels * 16 switches * 4 ups, two links each
        assert len(network.links) == 2 * (64 + 128)

    def test_architecture_selects_switch_class(self):
        cb = build_network(SimulationConfig(num_hosts=16))
        assert all(isinstance(s, CentralBufferSwitch) for s in cb.switches)
        ib = build_network(
            SimulationConfig(
                num_hosts=16,
                switch_architecture=SwitchArchitecture.INPUT_BUFFER,
            )
        )
        assert all(isinstance(s, InputBufferSwitch) for s in ib.switches)

    def test_one_production_plane_and_a_reference_it_never_loads(self):
        # the span-moving classes are the production classes, not leaves
        # of a per-flit hierarchy ...
        for cls in (CentralBufferSwitch, InputBufferSwitch):
            assert cls.__mro__ == (cls, SwitchBase, Component, object)
        assert HostInterface.__mro__ == (HostInterface, Component, object)
        # ... a default run never loads the per-flit reference, and the
        # production modules cannot build a Flit: they do not import it
        probe = textwrap.dedent(
            """
            import sys
            from repro import SimulationConfig, run_simulation
            from repro.traffic.unicast import UniformRandomUnicast

            run_simulation(
                SimulationConfig(num_hosts=16),
                UniformRandomUnicast(
                    load=0.1, payload_flits=8,
                    warmup_cycles=20, measure_cycles=60,
                ),
            )
            assert "repro.reference" not in sys.modules
            for name in (
                "repro.switches.base",
                "repro.switches.central_buffer",
                "repro.switches.input_buffer",
                "repro.host.interface",
            ):
                assert not hasattr(sys.modules[name], "Flit"), name
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True,
            timeout=120,
        )
        # packed=False is the one way in, and the reference classes
        # still are their production classes (metrics/probe.py and
        # tests/integration/test_conservation.py dispatch on isinstance)
        from repro import reference

        for architecture, production, expected in (
            (SwitchArchitecture.CENTRAL_BUFFER, CentralBufferSwitch,
             reference.ReferenceCentralBufferSwitch),
            (SwitchArchitecture.INPUT_BUFFER, InputBufferSwitch,
             reference.ReferenceInputBufferSwitch),
        ):
            network = build_network(
                SimulationConfig(
                    num_hosts=16, switch_architecture=architecture,
                    packed=False,
                )
            )
            assert {type(s) for s in network.switches} == {expected}
            assert issubclass(expected, production)
            assert {type(ni) for ni in network.interfaces} == {
                reference.ReferenceHostInterface
            }
        assert issubclass(reference.ReferenceHostInterface, HostInterface)

    def test_every_bmin_port_wired(self):
        network = build_network(SimulationConfig(num_hosts=16))
        for switch in network.switches:
            table = switch.table
            for port in list(table.down_reach) + list(table.up_ports):
                assert switch.in_links[port] is not None, (switch.name, port)
                assert switch.out_links[port] is not None

    def test_interfaces_fully_wired(self):
        network = build_network(SimulationConfig(num_hosts=16))
        for ni in network.interfaces:
            assert ni.out_link is not None
            assert ni.in_link is not None

    def test_validation_runs(self):
        with pytest.raises(Exception):
            build_network(SimulationConfig(num_hosts=48))

    def test_umin_builds(self):
        network = build_network(
            SimulationConfig(num_hosts=16, topology=TopologyKind.UMIN)
        )
        assert len(network.switches) == 8

    def test_irregular_builds(self):
        network = build_network(
            SimulationConfig(
                num_hosts=16,
                topology=TopologyKind.IRREGULAR,
                irregular_switches=8,
            )
        )
        assert len(network.switches) == 8

    def test_quiescent_when_fresh(self):
        network = build_network(SimulationConfig(num_hosts=16))
        assert network.quiescent()

    def test_unicast_header_flits(self):
        network = build_network(SimulationConfig(num_hosts=64))
        assert network.unicast_header_flits() == 1


class TestTopologyMemo:
    """Topology and routing tables are built once per structure."""

    IRREGULAR = dict(
        num_hosts=16, topology=TopologyKind.IRREGULAR, irregular_switches=8,
    )

    @staticmethod
    def _run(config):
        network = build_network(config)
        result = run_workload(network, UniformRandomUnicast(
            load=0.3, payload_flits=8, warmup_cycles=20, measure_cycles=200,
        ))
        return result.cycles, result.summary(), network.sim.progress

    def test_builds_of_one_structure_share_tables(self):
        first = build_network(SimulationConfig(**self.IRREGULAR, seed=1))
        # the run seed is not structure: a different seed still hits
        second = build_network(SimulationConfig(**self.IRREGULAR, seed=2))
        assert second.tables is first.tables
        assert second.topology is first.topology
        assert second.topology_object is first.topology_object

    def test_differing_topology_seed_misses(self):
        first = build_network(SimulationConfig(**self.IRREGULAR))
        other = build_network(
            SimulationConfig(**self.IRREGULAR, topology_seed=8)
        )
        assert other.tables is not first.tables
        assert other.topology is not first.topology

    def test_run_on_shared_tables_equals_run_on_fresh_ones(self):
        config = SimulationConfig(**self.IRREGULAR, seed=5)
        self._run(config)  # leave used tables in the cache
        shared = self._run(config)
        builder._cached_topology.cache_clear()
        assert self._run(config) == shared

    def test_cache_is_bounded(self):
        bound = builder._cached_topology.cache_info().maxsize
        assert bound is not None and bound <= 16
        for seed in range(bound + 4):
            build_network(
                SimulationConfig(**self.IRREGULAR, topology_seed=seed)
            )
        assert builder._cached_topology.cache_info().currsize == bound


STRUCTURES = {
    "bmin-16": dict(num_hosts=16),
    "bmin-64": dict(num_hosts=64),
    "bmin-256": dict(num_hosts=256),
    "umin-64": dict(num_hosts=64, topology=TopologyKind.UMIN),
    "irregular": dict(
        num_hosts=16, topology=TopologyKind.IRREGULAR, irregular_switches=8,
    ),
}


class TestWiringPlan:
    """Link names and ends are computed once per structure; a network
    wired from the plan is the one a walk over the link graph wires."""

    @pytest.mark.parametrize("packed", [True, False])
    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_built_links_are_what_the_link_graph_says(self, structure, packed):
        config = SimulationConfig(
            **STRUCTURES[structure], link_latency=2, packed=packed
        )
        network = build_network(config)
        specs = network.topology.links
        assert len(network.links) == len(specs) > config.num_hosts

        def end(endpoint):
            if endpoint.kind == NodeKind.HOST:
                return network.interfaces[endpoint.node]
            return network.switches[endpoint.node]

        for link, spec in zip(network.links, specs):
            sender, receiver = end(spec.src), end(spec.dst)
            assert link.name == f"{spec.src}->{spec.dst}"
            assert link.latency == link.credit_latency == 2
            assert link._credit_comp is sender
            assert link._arrival_comp is receiver
            if spec.dst.kind == NodeKind.HOST:
                assert receiver.in_link is link
                assert link._rx_bit == 1
                assert link.credits(0) == config.ni_rx_depth
                # a sink, and deep enough never to throttle
                assert link._unthrottled == (config.ni_rx_depth >= 4)
            else:
                assert receiver.in_links[spec.dst.port] is link
                assert link._rx_bit == 1 << spec.dst.port
                assert link.credits(0) == receiver.input_credit_depth(
                    spec.dst.port
                )
                assert not link._unthrottled
            if spec.src.kind == NodeKind.HOST:
                assert sender.out_link is link
            else:
                assert sender.out_links[spec.src.port] is link

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_one_immutable_plan_per_structure(self, structure):
        first = builder._build_topology(
            SimulationConfig(**STRUCTURES[structure], seed=1)
        )
        second = builder._build_topology(
            SimulationConfig(
                **STRUCTURES[structure], seed=2, packed=False,
                switch_architecture=SwitchArchitecture.INPUT_BUFFER,
            )
        )
        assert second[3] is first[3]
        topology, plan = first[1], first[3]
        assert plan == topology.wiring_plan()
        assert type(plan) is tuple and len(plan) == len(topology.links)
        for step in plan:
            assert type(step) is tuple
            assert [type(field) for field in step] == [
                str, bool, int, int, bool, int, int
            ]
