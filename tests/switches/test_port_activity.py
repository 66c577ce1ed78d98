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

from hypothesis import given, strategies as st

from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.host.interface import HostInterface
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.switches.link import Link
from repro.switches.ports import PORTS_OF
from repro.traffic.unicast import UniformRandomUnicast

from tests.differential import CB, IB, MASK_ROWS, masks, sweep
from tests.switches.test_link_spans import WakeLog, make_link, make_worm


class TestMasksMirrorState:
    @given(
        scenario=st.sampled_from(MASK_ROWS),
        seed=st.integers(0, 2 ** 16),
        dense=st.booleans(),
        telemetry=st.booleans(),
        packed=st.booleans(),
    )
    @sweep(
        20, MASK_ROWS, seed=range(len(MASK_ROWS)), dense=(False, True),
        telemetry=(False, False, True, True), packed=(True, True, False),
    )
    def test_every_cycle_of_a_whole_network_run(
        self, runs, scenario, seed, dense, telemetry, packed
    ):
        config = scenario.config(
            seed=seed, dense_kernel=dense, packed=packed
        )
        runs.run(masks, scenario, config, observed=telemetry)

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
