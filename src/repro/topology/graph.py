"""Generic topology description consumed by the network builder.

A topology is a set of hosts, a set of switches with a fixed port count,
and a set of *unidirectional* links between endpoints.  Bidirectional
cables are represented as two opposed links (as in the SP systems, where
a port pair carries one link in each direction).

The topology layer is purely structural: routing knowledge (port
direction classes, reachability vectors) is computed by
:mod:`repro.routing` from this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TopologyError


class NodeKind:
    """Endpoint kinds (plain strings; an enum would add noise here)."""

    HOST = "host"
    SWITCH = "switch"


@dataclass(frozen=True)
class Endpoint:
    """One side of a link: a host (port is always 0) or a switch port."""

    kind: str
    node: int
    port: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (NodeKind.HOST, NodeKind.SWITCH):
            raise TopologyError(f"unknown endpoint kind {self.kind!r}")
        if self.node < 0 or self.port < 0:
            raise TopologyError("endpoint node and port must be non-negative")

    @classmethod
    def host(cls, host_id: int) -> "Endpoint":
        """Endpoint at a host's single network port."""
        return cls(NodeKind.HOST, host_id, 0)

    @classmethod
    def switch(cls, switch_id: int, port: int) -> "Endpoint":
        """Endpoint at a switch port."""
        return cls(NodeKind.SWITCH, switch_id, port)

    def __repr__(self) -> str:
        if self.kind == NodeKind.HOST:
            return f"host{self.node}"
        return f"sw{self.node}.p{self.port}"


@dataclass(frozen=True)
class LinkSpec:
    """A unidirectional link from ``src`` to ``dst``."""

    src: Endpoint
    dst: Endpoint


#: one link of :meth:`Topology.wiring_plan`: ``(name, src_is_host, src,
#: src_port, dst_is_host, dst, dst_port)``
WiringStep = Tuple[str, bool, int, int, bool, int, int]


class Topology:
    """Hosts, switches and unidirectional links.

    Parameters
    ----------
    num_hosts:
        Hosts are numbered ``0..num_hosts-1``.
    switch_ports:
        Port count per switch, indexed by switch id ``0..len-1``.
    """

    def __init__(self, num_hosts: int, switch_ports: List[int]) -> None:
        if num_hosts <= 0:
            raise TopologyError("need at least one host")
        if any(p <= 0 for p in switch_ports):
            raise TopologyError("every switch needs at least one port")
        self.num_hosts = num_hosts
        self.switch_ports = list(switch_ports)
        self._links: List[LinkSpec] = []
        self._out_by_endpoint: Dict[Endpoint, LinkSpec] = {}
        self._in_by_endpoint: Dict[Endpoint, LinkSpec] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def num_switches(self) -> int:
        """Number of switches."""
        return len(self.switch_ports)

    def add_link(self, src: Endpoint, dst: Endpoint) -> LinkSpec:
        """Add one unidirectional link; endpoints must be unused in that
        direction."""
        self._validate_endpoint(src)
        self._validate_endpoint(dst)
        if src in self._out_by_endpoint:
            raise TopologyError(f"{src} already has an outgoing link")
        if dst in self._in_by_endpoint:
            raise TopologyError(f"{dst} already has an incoming link")
        link = LinkSpec(src, dst)
        self._links.append(link)
        self._out_by_endpoint[src] = link
        self._in_by_endpoint[dst] = link
        return link

    def add_bidirectional(self, a: Endpoint, b: Endpoint) -> Tuple[LinkSpec, LinkSpec]:
        """Add a cable: one link in each direction between ``a`` and ``b``."""
        return self.add_link(a, b), self.add_link(b, a)

    def _validate_endpoint(self, endpoint: Endpoint) -> None:
        if endpoint.kind == NodeKind.HOST:
            if endpoint.node >= self.num_hosts:
                raise TopologyError(f"host {endpoint.node} does not exist")
            if endpoint.port != 0:
                raise TopologyError("hosts have a single port, index 0")
        else:
            if endpoint.node >= self.num_switches:
                raise TopologyError(f"switch {endpoint.node} does not exist")
            if endpoint.port >= self.switch_ports[endpoint.node]:
                raise TopologyError(
                    f"switch {endpoint.node} has no port {endpoint.port}"
                )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def links(self) -> List[LinkSpec]:
        """All links, in insertion order."""
        return self._links

    def link_from(self, endpoint: Endpoint) -> Optional[LinkSpec]:
        """The outgoing link at ``endpoint``, or ``None``."""
        return self._out_by_endpoint.get(endpoint)

    def link_into(self, endpoint: Endpoint) -> Optional[LinkSpec]:
        """The incoming link at ``endpoint``, or ``None``."""
        return self._in_by_endpoint.get(endpoint)

    def neighbor_of(self, endpoint: Endpoint) -> Optional[Endpoint]:
        """The endpoint at the far end of the outgoing link, if any."""
        link = self.link_from(endpoint)
        return link.dst if link else None

    def host_attachment(self, host_id: int) -> Endpoint:
        """The switch endpoint the host's outgoing link lands on."""
        link = self.link_from(Endpoint.host(host_id))
        if link is None or link.dst.kind != NodeKind.SWITCH:
            raise TopologyError(f"host {host_id} is not attached to a switch")
        return link.dst

    def switch_port_peers(self, switch_id: int) -> List[Optional[Endpoint]]:
        """Per-port peer endpoint of a switch (``None`` for unwired ports).

        A port's peer is the destination of its outgoing link; validation
        ensures it matches the source of its incoming link.
        """
        peers: List[Optional[Endpoint]] = []
        for port in range(self.switch_ports[switch_id]):
            link = self.link_from(Endpoint.switch(switch_id, port))
            peers.append(link.dst if link else None)
        return peers

    def wiring_plan(self) -> Tuple[WiringStep, ...]:
        """Everything the network builder needs per link, as plain
        immutable tuples in :attr:`links` order — the link's name and
        both ends with the host/switch test already made.  A function of
        the structure alone, so the builder computes it once per
        structure, next to the routing tables, and every network of that
        structure is wired from the same plan."""
        host = NodeKind.HOST
        return tuple(
            (
                f"{spec.src}->{spec.dst}",
                spec.src.kind == host, spec.src.node, spec.src.port,
                spec.dst.kind == host, spec.dst.node, spec.dst.port,
            )
            for spec in self._links
        )

    def iter_switch_links(self) -> Iterator[LinkSpec]:
        """Yield only switch-to-switch links."""
        for link in self._links:
            if (
                link.src.kind == NodeKind.SWITCH
                and link.dst.kind == NodeKind.SWITCH
            ):
                yield link

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, require_symmetric: bool = True) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        * every host has exactly one outgoing and one incoming link;
        * with ``require_symmetric`` (the bidirectional-network default),
          a host's two links meet the same switch port, and every wired
          switch port is wired in both directions to the same peer.
          Unidirectional MINs pass ``require_symmetric=False`` because
          their hosts inject into stage 0 but eject from the last stage,
          and their switch ports carry traffic one way only.
        """
        for host in range(self.num_hosts):
            endpoint = Endpoint.host(host)
            out = self.link_from(endpoint)
            into = self.link_into(endpoint)
            if out is None or into is None:
                raise TopologyError(f"host {host} is not fully attached")
            if out.dst.kind != NodeKind.SWITCH:
                raise TopologyError(f"host {host} attaches to a non-switch")
            if require_symmetric and into.src != out.dst:
                raise TopologyError(
                    f"host {host} attachment is asymmetric: "
                    f"sends to {out.dst} but hears from {into.src}"
                )
        if not require_symmetric:
            return
        for switch in range(self.num_switches):
            for port in range(self.switch_ports[switch]):
                endpoint = Endpoint.switch(switch, port)
                out = self.link_from(endpoint)
                into = self.link_into(endpoint)
                if (out is None) != (into is None):
                    raise TopologyError(
                        f"{endpoint} is wired in only one direction"
                    )
                if out is not None and into is not None and out.dst != into.src:
                    raise TopologyError(
                        f"{endpoint} is wired asymmetrically: "
                        f"sends to {out.dst}, hears from {into.src}"
                    )

    def __repr__(self) -> str:
        return (
            f"Topology(hosts={self.num_hosts}, switches={self.num_switches}, "
            f"links={len(self._links)})"
        )
