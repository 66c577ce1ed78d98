"""Assemble a runnable network from a :class:`SimulationConfig`."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Union

from repro.core.schemes import SwitchArchitecture
from repro.errors import ConfigurationError
from repro.flits.destset import DestinationSet
from repro.flits.encoding import HeaderEncoding
from repro.host.interface import HostInterface
from repro.host.node import HostNode, allocate_nodes
from repro.metrics.collectors import MetricsCollector
from repro.network.config import SimulationConfig, TopologyKind
from repro.obs.registry import MetricsRegistry
from repro.routing.reachability import tables_for_bmin, tables_for_umin
from repro.routing.table import SwitchRoutingTable
from repro.routing.updown import tables_for_irregular
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.switches.base import SwitchBase
from repro.switches.central_buffer import CentralBufferSwitch
from repro.switches.input_buffer import InputBufferSwitch
from repro.switches.link import Link
from repro.topology.bmin import BidirectionalMin
from repro.topology.graph import Topology
from repro.topology.irregular import IrregularNetwork
from repro.topology.umin import UnidirectionalMin

TopologyObject = Union[BidirectionalMin, UnidirectionalMin, IrregularNetwork]


@dataclass
class Network:
    """A built, runnable network and all its parts."""

    config: SimulationConfig
    sim: Simulator
    topology: Topology
    topology_object: TopologyObject
    tables: List[SwitchRoutingTable]
    switches: List[SwitchBase]
    interfaces: List[HostInterface]
    nodes: List[HostNode]
    collector: MetricsCollector
    encoding: HeaderEncoding
    links: List[Link] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None

    @property
    def num_hosts(self) -> int:
        """System size N."""
        return self.config.num_hosts

    def unicast_header_flits(self) -> int:
        """Header size of a single-destination packet."""
        return self.encoding.header_flits(
            DestinationSet.single(self.num_hosts, 0)
        )

    def quiescent(self) -> bool:
        """True when nothing is in flight anywhere."""
        return (
            self.collector.outstanding_messages == 0
            and all(ni.idle() for ni in self.interfaces)
            and all(sw.idle() for sw in self.switches)
        )

    def close(self) -> None:
        """Declare the network finished, so that dropping it frees every
        object by reference count and leaves the cyclic collector
        nothing.

        Clears exactly the back-references that make the graph cyclic:
        the simulator's component list (each component points at its
        simulator) and the events still on its calendar after a run cut
        short (their closures point at nodes), every link's arrival and
        credit waker (each component points at its links), and every
        delivery callback (NI to node, node to a collective engine that
        lists the nodes).  Everything a caller reads after a run — the
        result, the collector, switches and their buffer pools, link
        counters, the topology — stays readable; the network itself
        refuses to run again (:class:`~repro.errors.SimulationError`).
        Whoever drops the last reference to a finished run calls this
        first; calling it twice is a no-op.
        """
        sim = self.sim
        sim._closed = True
        sim._components.clear()
        sim._calendar.clear()
        for link in self.links:
            link._arrival_comp = link._credit_comp = None
        for node in self.nodes:
            node.interface._on_delivery = None
            node._delivery_listeners.clear()


def _build_topology(config: SimulationConfig):
    """Topology object, link graph, routing tables and wiring plan of
    ``config``."""
    return _cached_topology(
        config.topology,
        config.num_hosts,
        config.arity,
        config.irregular_switches,
        config.irregular_extra_links,
        config.topology_seed,
    )


@lru_cache(maxsize=8)
def _cached_topology(
    kind: TopologyKind,
    num_hosts: int,
    arity: int,
    irregular_switches: int,
    irregular_extra_links: int,
    topology_seed: int,
):
    """Build once per process per structure: a campaign builds the same
    few topologies hundreds of times, and the result — the graph, the
    routing tables and the wiring plan (every link's name and ends, see
    :meth:`Topology.wiring_plan`) — is read-only after construction, so
    every network of one structure shares it."""
    if kind is TopologyKind.BMIN:
        built = BidirectionalMin.for_hosts(num_hosts, arity)
        tables = tables_for_bmin(built)
    elif kind is TopologyKind.UMIN:
        levels = 1
        size = arity
        while size < num_hosts:
            size *= arity
            levels += 1
        built = UnidirectionalMin(arity, levels)
        tables = tables_for_umin(built)
    elif kind is TopologyKind.IRREGULAR:
        built = IrregularNetwork(
            num_switches=irregular_switches,
            hosts_per_switch=num_hosts // irregular_switches,
            ports_per_switch=2 * arity,
            extra_links=irregular_extra_links,
            seed=topology_seed,
        )
        tables = tables_for_irregular(built)
    else:
        raise ConfigurationError(f"unknown topology kind {kind!r}")
    topology = built.topology
    return built, topology, tables, topology.wiring_plan()


def _switch_class(architecture: SwitchArchitecture):
    if architecture is SwitchArchitecture.CENTRAL_BUFFER:
        return CentralBufferSwitch
    if architecture is SwitchArchitecture.INPUT_BUFFER:
        return InputBufferSwitch
    raise ConfigurationError(f"unknown architecture {architecture!r}")


def build_network(
    config: SimulationConfig,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Network:
    """Build every component of the configured system and wire it up.

    ``metrics`` is an observability registry shared by every switch and
    host, and ``tracer`` a trace capture they all emit to; without them
    no component registers an instrument or emits (see :mod:`repro.obs`).
    """
    config.validate()
    topology_object, topology, tables, wiring = _build_topology(config)
    sim = Simulator(seed=config.seed, dense=config.dense_kernel)
    encoding = config.build_encoding()
    collector = MetricsCollector(config.num_hosts)
    settings = config.switch_settings()
    switch_class = _switch_class(config.switch_architecture)
    interface_class = HostInterface
    if config.packed is False:
        # the per-flit reference of the differential suites; imported
        # here and nowhere else, so no production run ever loads it
        from repro import reference

        switch_class = {
            CentralBufferSwitch: reference.ReferenceCentralBufferSwitch,
            InputBufferSwitch: reference.ReferenceInputBufferSwitch,
        }[switch_class]
        interface_class = reference.ReferenceHostInterface

    switches: List[SwitchBase] = []
    for switch_id, ports in enumerate(topology.switch_ports):
        switch = switch_class(
            name=f"sw{switch_id}",
            table=tables[switch_id],
            num_ports=ports,
            settings=settings,
            tracer=tracer,
            metrics=metrics,
        )
        sim.add_component(switch)
        switches.append(switch)

    interfaces: List[HostInterface] = []
    for host in range(config.num_hosts):
        interface = interface_class(
            host, tracer=tracer, rx_depth=config.ni_rx_depth, metrics=metrics
        )
        sim.add_component(interface)
        interfaces.append(interface)

    links: List[Link] = []
    latency = config.link_latency
    for name, from_host, src, src_port, to_host, dst, dst_port in wiring:
        link = Link(name, latency)
        links.append(link)
        if from_host:
            interfaces[src].connect_out(link)
        else:
            switches[src].connect_out(src_port, link)
        if to_host:
            interfaces[dst].connect_in(link)
        else:
            switches[dst].connect_in(dst_port, link)

    nodes = allocate_nodes(
        sim=sim,
        interfaces=interfaces,
        encoding=encoding,
        collector=collector,
        params=config.host_params(),
        metrics=metrics,
    )
    return Network(
        config=config,
        sim=sim,
        topology=topology,
        topology_object=topology_object,
        tables=tables,
        switches=switches,
        interfaces=interfaces,
        nodes=nodes,
        collector=collector,
        encoding=encoding,
        links=links,
        metrics=metrics,
    )
