"""Host NI: injection pacing, ejection protocol, reassembly hand-off."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.flit import Flit
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.host.interface import HostInterface
from repro.sim.kernel import Simulator
from repro.switches.link import Link


def make_worm(dest=1, payload=4, universe=4, source=0):
    destinations = DestinationSet.single(universe, dest)
    message = Message(0, source, destinations, payload,
                      TrafficClass.UNICAST, 0)
    packet = Packet(0, message, destinations, 1, payload)
    return Worm.root(packet)


def rig(host_id=1):
    """An NI with both links wired to test stubs."""
    sim = Simulator()
    ni = HostInterface(host_id)
    sim.add_component(ni)
    out_link = Link("ni->sw")
    out_link.set_credits(4)  # pretend switch fifo
    in_link = Link("sw->ni")
    ni.connect_out(out_link)
    ni.connect_in(in_link)
    return sim, ni, out_link, in_link


class TestInjection:
    def test_one_flit_per_cycle(self):
        sim, ni, out_link, _ = rig()
        worm = make_worm(payload=9)  # 10 flits
        ni.enqueue(worm)
        sim.run(3)
        # cycles 0..2 put one flit each on the wire (the NI stages them
        # as a span, so count what has landed, not what was staged)
        assert len(out_link.receive(3)) == 3

    def test_injected_cycle_recorded(self):
        sim, ni, out_link, _ = rig()
        worm = make_worm()
        ni.enqueue(worm)
        sim.run(1)
        assert worm.packet.injected_cycle == 0

    def test_blocked_by_credits(self):
        sim, ni, out_link, _ = rig()
        ni.enqueue(make_worm(payload=9))
        sim.run(10)  # only 4 credits, never returned
        assert out_link.flits_sent == 4
        assert ni.injection_backlog == 1

    def test_fifo_across_worms(self):
        sim, ni, out_link, _ = rig()
        a = make_worm(payload=1)  # 2 flits
        b = make_worm(payload=1)
        ni.enqueue(a)
        ni.enqueue(b)
        sim.run(10)
        sent = [flit.worm for flit in out_link.receive(20)]
        assert sent == [a, a, b, b]

    def test_idle_reflects_backlog(self):
        sim, ni, _, _ = rig()
        assert ni.idle()
        ni.enqueue(make_worm())
        assert not ni.idle()


class TestEjection:
    def feed(self, sim, in_link, worm):
        """Stream the worm in, stepping the sim so credits recirculate."""
        sent = 0
        for _ in range(4 * worm.size_flits + 8):
            if sent < worm.size_flits and in_link.can_send(sim.now):
                in_link.send(sim.now, Flit(worm, sent))
                sent += 1
            sim.step()
            if sent == worm.size_flits:
                break
        sim.run(3)

    def test_delivers_on_tail(self):
        sim, ni, _, in_link = rig(host_id=1)
        deliveries = []
        ni.on_delivery(lambda worm, now: deliveries.append((worm, now)))
        worm = make_worm(dest=1, payload=3)
        self.feed(sim, in_link, worm)
        assert len(deliveries) == 1
        assert deliveries[0][0] is worm

    def test_counts_flits(self):
        sim, ni, _, in_link = rig()
        worm = make_worm(dest=1, payload=5)
        self.feed(sim, in_link, worm)
        assert ni.flits_ejected == worm.size_flits

    def test_rejects_wrong_destination(self):
        sim, ni, _, in_link = rig(host_id=1)
        stray = make_worm(dest=2)
        with pytest.raises(ProtocolError):
            self.feed(sim, in_link, stray)

    def test_rejects_multidestination_delivery(self):
        sim, ni, _, in_link = rig(host_id=1)
        destinations = DestinationSet.from_ids(4, [1, 2])
        message = Message(0, 0, destinations, 3, TrafficClass.MULTICAST, 0)
        packet = Packet(0, message, destinations, 1, 3)
        with pytest.raises(ProtocolError):
            self.feed(sim, in_link, Worm.root(packet))

    def test_rejects_headless_body(self):
        sim, ni, _, in_link = rig(host_id=1)
        worm = make_worm(dest=1, payload=3)
        in_link.send(0, Flit(worm, 2))
        with pytest.raises(ProtocolError):
            sim.run(3)

    def test_credits_returned_promptly(self):
        sim, ni, _, in_link = rig()
        worm = make_worm(dest=1, payload=20)
        # send as fast as credits allow; NI returns credits immediately so
        # the stream never stalls
        sent = 0
        for cycle in range(60):
            if sent < worm.size_flits and in_link.can_send(cycle):
                in_link.send(cycle, Flit(worm, sent))
                sent += 1
            sim.step()
        assert sent == worm.size_flits


class TestWiring:
    def test_double_wire_rejected(self):
        _, ni, out_link, in_link = rig()
        with pytest.raises(ProtocolError):
            ni.connect_out(Link("x"))
        with pytest.raises(ProtocolError):
            ni.connect_in(Link("y"))


class TestRxDepth:
    def test_deeper_rx_fifo_unthrottles_long_links(self):
        """With 3-cycle links the default 4-credit FIFO cannot cover the
        credit round trip; a deeper FIFO restores full-rate ejection."""
        from repro.network.builder import build_network
        from repro.network.config import SimulationConfig
        from repro.flits.packet import TrafficClass

        def latency(rx_depth):
            config = SimulationConfig(
                num_hosts=16, link_latency=3, ni_rx_depth=rx_depth,
                sw_send_overhead=0,
            )
            network = build_network(config)
            network.sim.schedule_at(
                0, lambda: network.nodes[0].post_unicast(15, 40)
            )
            network.sim.run_until(
                lambda: network.collector.outstanding_messages == 0
                and network.collector.messages_created == 1,
                max_cycles=60_000,
            )
            return network.collector.classes[
                TrafficClass.UNICAST
            ].latency.mean

        assert latency(16) < latency(4)

    def test_invalid_depth_rejected(self):
        import pytest as _pytest
        from repro.errors import ProtocolError
        with _pytest.raises(ProtocolError):
            HostInterface(0, rx_depth=0)
