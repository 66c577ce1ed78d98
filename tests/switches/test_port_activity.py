"""Port-activity masks always equal the state they mirror.

The switches iterate ``PORTS_OF[mask]`` instead of scanning the
port range (``repro.switches.ports``), so a bit that lags its state is a
port silently skipped — a lost flit or a starved output, but only on the
workloads that happen to hit the gap.  The sweep below recomputes every
mask from first principles after *every cycle* of whole-network runs
(probes fire after the cycle's ticks) on both architectures, both
kernels and both planes (the per-flit reference keeps the ingress, egress
and route-pending masks as its phase gates but polls its in-links, so
rx-pending is audited on the production plane only), watched by a
registry and a tracer or by neither — an observer does not select the
execution (``test_span_commit.TestObservedIsProduction``), so that axis
only checks that the emit and count sites are inert; the link-level
cases pin the rx-pending protocol between :class:`Link` and its
receiver.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.registry import MetricsRegistry
from repro.host.interface import HostInterface
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.switches.base import ReplicationMode
from repro.switches.central_buffer import CentralBufferSwitch, _IngressState
from repro.switches.link import Link
from repro.switches.ports import PORTS_OF
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import RandomMulticastStream
from repro.traffic.unicast import UniformRandomUnicast

from tests.switches.test_link_spans import WakeLog, make_link, make_worm

CB = SwitchArchitecture.CENTRAL_BUFFER
IB = SwitchArchitecture.INPUT_BUFFER


def _multicast_stream():
    return RandomMulticastStream(
        ops_per_host_per_kilocycle=1.0, degree=6, payload_flits=16,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=50, measure_cycles=300,
    )


#: (label, architecture, config overrides, workload factory)
SCENARIOS = (
    ("uniform-cb", CB, {}, lambda: UniformRandomUnicast(
        load=0.5, payload_flits=8, warmup_cycles=50, measure_cycles=300,
    )),
    ("uniform-ib", IB, {}, lambda: UniformRandomUnicast(
        load=0.5, payload_flits=8, warmup_cycles=50, measure_cycles=300,
    )),
    ("hotspot-cb", CB, {}, lambda: HotspotTraffic(
        load=0.5, hotspot_fraction=0.4, payload_flits=8,
        warmup_cycles=50, measure_cycles=250,
    )),
    ("hotspot-ib", IB, {}, lambda: HotspotTraffic(
        load=0.5, hotspot_fraction=0.4, payload_flits=8,
        warmup_cycles=50, measure_cycles=250,
    )),
    ("mcast-cb", CB, {}, _multicast_stream),
    ("mcast-ib", IB, {}, _multicast_stream),
    ("mcast-ib-sync", IB,
     {"replication": ReplicationMode.SYNCHRONOUS}, _multicast_stream),
)


def mask_of(flags):
    return sum(1 << port for port, flag in enumerate(flags) if flag)


def switch_truth(switch):
    """(ingress, wanted, busy, route-pending) recomputed from the
    switch's own state."""
    fronts = [inflow[0] if inflow else None for inflow in switch._inflow]
    if isinstance(switch, CentralBufferSwitch):
        wanted, current = switch._out_queue, switch._out_current
        pending = [
            front is not None and front.state in (
                _IngressState.ROUTE_WAIT, _IngressState.ADMIT_WAIT
            )
            for front in fronts
        ]
    else:
        wanted, current = switch._waiting, switch._current
        pending = [
            front is not None
            and not front.branches
            and front.received >= front.worm.header_flits
            for front in fronts
        ]
    return (
        mask_of(bool(inflow) for inflow in switch._inflow),
        mask_of(bool(queue) for queue in wanted),
        mask_of(slot is not None for slot in current),
        mask_of(pending),
    )


def front_truth(switch, cycle):
    """(route_pending, cb_feed) of a central-buffer switch recomputed
    from its FIFO-front worms — whose write-run state must be one the
    per-flit timeline can be read from at the end of ``cycle``."""
    fronts = [inflow[0] if inflow else None for inflow in switch._inflow]
    for port, front in enumerate(fronts):
        stored = None if front is None else front.stored
        if stored is None or front.state is not _IngressState.STREAM_CB:
            continue
        # a FIFO slot is consumed by the write that empties it, and a
        # run writes ahead only what has landed by its turn — taken off
        # the link, ahead of its cycle or not, or still waiting there —
        # never the tail, into space the packet holds
        assert front.consumed == stored.flits_written
        link = switch.in_links[port]
        landed = front.landed_by(cycle) + link._in_flight.arrived(cycle)
        assert stored.written_by(cycle) <= landed, (cycle, switch.name, port)
        assert stored.owned_space() >= 0
        if stored.last_write > cycle:
            assert stored.flits_written < stored.total_flits
    states = [None if front is None else front.state for front in fronts]
    return (
        mask_of(
            state in (_IngressState.ROUTE_WAIT, _IngressState.ADMIT_WAIT)
            for state in states
        ),
        mask_of(state is _IngressState.STREAM_CB for state in states),
    )


def rx_truth(in_links):
    return mask_of(
        link is not None and link.in_flight() > 0 for link in in_links
    )


class MaskAuditor:
    """Kernel probe: compare every mask with its truth after each cycle."""

    def __init__(self, network):
        self.network = network
        #: only receivers that drain by mask clear their rx bits
        self.audit_rx = network.config.packed
        self.next_cycle = 0
        self.cycles_audited = 0

    def sample(self, cycle):
        self.next_cycle = cycle + 1
        self.cycles_audited += 1
        for switch in self.network.switches:
            masks = (
                switch._ingress_occupied,
                switch._egress_wanted,
                switch._egress_busy,
                switch._route_pending,
            )
            assert masks == switch_truth(switch), (cycle, switch.name)
            if isinstance(switch, CentralBufferSwitch):
                assert (
                    switch._route_pending, switch._cb_feed
                ) == front_truth(switch, cycle), (cycle, switch.name)
            # the link sets the bit at send time and the receiver clears
            # it on the drain that empties the queue, so under the packed
            # receivers "holds flits" and "bit set" coincide exactly
            if self.audit_rx:
                assert switch._rx_pending == rx_truth(switch.in_links), (
                    cycle, switch.name,
                )
            if switch.idle():
                assert masks == (0, 0, 0, 0)
        if self.audit_rx:
            for interface in self.network.interfaces:
                assert interface._rx_pending == rx_truth(
                    [interface.in_link]
                ), (cycle, interface.name)


class TestMasksMirrorState:
    @given(
        scenario=st.sampled_from(SCENARIOS),
        seed=st.integers(0, 2 ** 16),
        dense=st.booleans(),
        telemetry=st.booleans(),
        packed=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_cycle_of_a_whole_network_run(
        self, scenario, seed, dense, telemetry, packed
    ):
        _, architecture, overrides, make_workload = scenario
        config = SimulationConfig(
            num_hosts=16, switch_architecture=architecture, seed=seed,
            dense_kernel=dense, packed=packed, **overrides,
        )
        network = build_network(
            config,
            metrics=MetricsRegistry() if telemetry else None,
            tracer=Tracer() if telemetry else None,
        )
        auditor = MaskAuditor(network)
        network.sim.add_probe(auditor)
        result = run_workload(network, make_workload())
        assert result.completed
        assert auditor.cycles_audited >= result.cycles
        for switch in network.switches:
            assert switch.idle()
            if packed:
                assert switch._rx_pending == 0

    def test_ports_of_is_ascending_for_any_width(self):
        assert PORTS_OF[0] == ()
        assert PORTS_OF[0b1010_0101] == (0, 2, 5, 7)
        # wider than any prebuilt table would be: filled on demand
        assert PORTS_OF[1 << 40 | 1] == (0, 40)


class TestLinkProtocol:
    def test_bare_link_without_receiver_still_works(self):
        link = make_link()
        worm = make_worm()
        link.send_packed(0, worm, 0)
        link.send_granted(1, worm, 1)
        link.send_span(2, worm, 2, 3)
        assert link.receive_span(10) == (worm, 0, 5)

    def test_receiver_is_woken_once_per_send_call(self):
        link = make_link(latency=2)
        receiver = WakeLog()
        link.wake_on_arrival(receiver)
        worm = make_worm()
        link.send_packed(3, worm, 0)
        link.send_span(4, worm, 1, 2)
        assert receiver.wakes == [5, 6]
        assert link.pending_arrival(5)
        assert link.receive_span(7) == (worm, 0, 3)

    def test_each_send_entry_point_sets_the_receivers_port_bit(self):
        for send in ("send_packed", "send_granted"):
            link = make_link()
            receiver = Component("rx")
            link.wake_on_arrival(receiver, port=5)
            assert receiver._rx_pending == 0
            getattr(link, send)(0, make_worm(), 0)
            assert receiver._rx_pending == 1 << 5
        link = make_link()
        receiver = Component("rx")
        link.wake_on_arrival(receiver, port=2)
        link.send_span(0, make_worm(), 0, 4)
        assert receiver._rx_pending == 1 << 2

    def test_flits_sent_before_wiring_are_not_lost(self):
        link = make_link()
        link.send_packed(0, make_worm(), 0)
        receiver = Component("rx")
        link.wake_on_arrival(receiver, port=3)
        assert receiver._rx_pending == 1 << 3

    def test_second_send_before_the_drain_keeps_the_bit(self):
        sim = Simulator()
        interface = sim.add_component(HostInterface(1))
        link = Link("eject", latency=1)
        interface.connect_in(link)
        worm = make_worm(size=2)
        # flit 0 lands at cycle 2; flit 1 is sent in cycle 2 *before*
        # the NI's tick (events run first), so the drain at 2 leaves it
        # in flight and the bit must survive until the drain at cycle 3
        sim.schedule(1, lambda: link.send_packed(1, worm, 0))
        sim.schedule(2, lambda: link.send_packed(2, worm, 1))
        sim.run(3)
        assert interface.flits_ejected == 1
        assert interface._rx_pending == 1
        sim.run(1)
        assert interface.flits_ejected == 2
        assert interface._rx_pending == 0

    def test_receive_span_rebound_before_first_tick_is_the_one_called(self):
        for architecture in (CB, IB):
            network = build_network(SimulationConfig(
                num_hosts=16, switch_architecture=architecture, seed=3,
            ))
            calls = []
            for link in network.links:
                def counted(now, limit=None, _take=link.receive_span,
                            _name=link.name):
                    calls.append(_name)
                    return _take(now, limit)
                link.receive_span = counted
            result = run_workload(network, UniformRandomUnicast(
                load=0.2, payload_flits=8,
                warmup_cycles=20, measure_cycles=100,
            ))
            assert result.completed
            # every hop of every flit came through a rebound entry point
            used = set(calls)
            for link in network.links:
                assert (link.name in used) == (link.flits_sent > 0)
