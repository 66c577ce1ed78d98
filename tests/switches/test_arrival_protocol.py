"""Worm arrival is one protocol, whatever the switch and the plane.

In-order reassembly at an input port, the head/order checks and the
header-completion stamp live once per plane (``SwitchBase._accept_span``
in production, ``_accept_flit`` in ``repro.reference``).  Each case
below drives a real in-link of a built switch and asserts the same
outcome on both architectures and both planes.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import SwitchArchitecture
from repro.errors import ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.flit import Flit
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.network.builder import build_network
from repro.network.config import SimulationConfig

HOSTS = 16
FLAVOURS = [
    pytest.param(architecture, packed, id=f"{label}-{plane}")
    for label, architecture in (
        ("cb", SwitchArchitecture.CENTRAL_BUFFER),
        ("ib", SwitchArchitecture.INPUT_BUFFER),
    )
    for plane, packed in (("object", False), ("packed", True))
]


def make_worm(packet_id=0, header=3, size=8):
    destinations = DestinationSet.single(HOSTS, 1)
    message = Message(
        0, 0, destinations, size - header, TrafficClass.UNICAST, 0
    )
    return Worm.root(
        Packet(packet_id, message, destinations, header, size - header)
    )


def rig(architecture, packed):
    """(switch, port, in-link) of one wired input of a built switch."""
    network = build_network(SimulationConfig(
        num_hosts=HOSTS, switch_architecture=architecture, packed=packed,
    ))
    switch = network.switches[0]
    port = next(
        p for p, link in enumerate(switch.in_links) if link is not None
    )
    return switch, port, switch.in_links[port]


@pytest.mark.parametrize("architecture, packed", FLAVOURS)
class TestArrivalProtocol:
    def test_body_flit_without_head(self, architecture, packed):
        switch, port, link = rig(architecture, packed)
        worm = make_worm()
        link.send_packed(0, worm, 2)
        with pytest.raises(ProtocolError) as error:
            switch.tick(link.latency)
        assert str(error.value) == (
            f"{switch.name}.in{port}: body flit {Flit(worm, 2)!r} "
            "without head"
        )

    @pytest.mark.parametrize("stray", ["skipped-index", "other-worm"])
    def test_out_of_order_flit(self, architecture, packed, stray):
        switch, port, link = rig(architecture, packed)
        worm = make_worm()
        link.send_packed(0, worm, 0)
        switch.tick(link.latency)
        if stray == "skipped-index":
            late = Flit(worm, 2)
        else:
            late = Flit(make_worm(packet_id=9), 1)
        link.send_packed(1, late.worm, late.index)
        with pytest.raises(ProtocolError) as error:
            switch.tick(1 + link.latency)
        assert str(error.value) == (
            f"{switch.name}.in{port}: out-of-order flit {late!r} "
            f"(expected index 1 of {worm!r})"
        )

    def test_header_stamp_when_a_span_crosses_the_boundary(
        self, architecture, packed
    ):
        switch, port, link = rig(architecture, packed)
        worm = make_worm(header=3)
        latency = link.latency
        link.send_span(0, worm, 0, 1)  # lands at latency
        switch.tick(latency)
        (ingress,) = switch._inflow[port]
        assert (ingress.received, ingress.header_done_cycle) == (1, None)
        assert switch._route_pending == 0
        # flits 1, 2 and 3 are all in the link when the switch next
        # looks, a cycle after flit 2 — the middle one — completed the
        # header by landing.  The reference accepts a flit on the cycle
        # it lands and stamps the cycle of that tick, so ticked late by
        # hand it stamps late; production sleeps through committed runs,
        # so it stamps the landing cycle of the completing flit however
        # late it looks — the routing delay must not start late for that
        link.send_span(latency, worm, 1, 3)
        completed = 2 * latency + 1
        seen = completed + 1
        switch.tick(seen)
        stamp = completed if packed else seen
        assert (ingress.received, ingress.header_done_cycle) == (4, stamp)
        assert switch._ingress_occupied == 1 << port
        assert switch._route_pending == 1 << port
