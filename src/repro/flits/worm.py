"""Worm instances: one replicated branch of a packet in flight.

When a switch replicates a multidestination packet, each branch's header
is rewritten to the subset of destinations that branch is responsible for
(the bit-string ANDed with the output port's reachability register, as in
the paper).  :class:`Worm` models one such branch: it shares the
underlying :class:`~repro.flits.packet.Packet` (the data) but carries its
own *effective destination set* (the rewritten header).  The worm injected
by the source host is the root; a replication that rewrites the header
creates child worms, and a hop that leaves it as it is forwards the worm
itself.
"""

from __future__ import annotations

from repro.flits.destset import DestinationSet
from repro.flits.flit import Flit
from repro.flits.packet import Packet, TrafficClass


class Worm:
    """One branch of a packet, with its rewritten destination header."""

    __slots__ = (
        "packet",
        "destinations",
        "descending",
        "size_flits",
        "header_flits",
    )

    def __init__(
        self,
        packet: Packet,
        destinations: DestinationSet,
        descending: bool = False,
    ) -> None:
        if not destinations:
            raise ValueError("a worm must carry at least one destination")
        if not destinations.issubset(packet.destinations):
            raise ValueError(
                "worm destinations must be a subset of the packet's"
            )
        self.packet = packet
        self.destinations = destinations
        #: True once the worm has turned around at (or below) the LCA and
        #: is travelling toward the leaves; switches use this to restrict
        #: routing to down-ports, matching the arrival-link direction the
        #: hardware infers.
        self.descending = descending
        #: worm length in flits, cached from the packet (hot path)
        self.size_flits = packet.size_flits
        #: header length in flits, cached from the packet (hot path)
        self.header_flits = packet.header_flits

    @classmethod
    def root(cls, packet: Packet) -> "Worm":
        """The worm injected at the source, carrying the full header."""
        return cls(packet, packet.destinations)

    def branch(self, destinations: DestinationSet, descending: bool) -> "Worm":
        """The branch carrying ``destinations``: this worm itself when
        the header is unchanged (its own destination set, the same
        direction, as a unicast hop decodes it), else a new child."""
        if destinations is self.destinations and descending == self.descending:
            return self
        return Worm(self.packet, destinations, descending)

    # ------------------------------------------------------------------
    # convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def source(self) -> int:
        """Injecting host id."""
        return self.packet.source

    @property
    def traffic_class(self) -> TrafficClass:
        """Metric attribution class."""
        return self.packet.traffic_class

    @property
    def is_multidestination(self) -> bool:
        """True when this branch still targets more than one host."""
        return not self.destinations.is_singleton()

    def flit(self, index: int) -> Flit:
        """The flit at ``index`` of this branch."""
        return Flit(self, index)

    def __repr__(self) -> str:
        return (
            f"Worm(pkt={self.packet.packet_id}, dests={len(self.destinations)}, "
            f"{'down' if self.descending else 'up'})"
        )
