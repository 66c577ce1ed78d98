"""Per-switch routing tables built on reachability registers.

The paper's switches decode a bit-string header by ANDing it with an
N-bit *reachability register* per output port.  A
:class:`SwitchRoutingTable` holds exactly those registers: a destination
mask per down-port (disjoint across ports, covering the switch's subtree)
plus the list of up-ports, any one of which reaches every host outside
the subtree.  :meth:`compute_requests` is the decode step — one ``&`` per
port — and produces the branch set for replication.  A one-host header
is decoded on its mask alone, as the hardware does: one ``&`` against
the subtree, then against each down-port's register until one hits, or
the up-port choice; it builds no destination set, and the branch
carries the worm's own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import RoutingError
from repro.flits.destset import DestinationSet
from repro.flits.worm import Worm
from repro.routing.base import (
    MulticastRoutingMode,
    PortRequest,
    UpSelector,
    validate_partition,
)


class SwitchRoutingTable:
    """Reachability registers and decode logic for one switch.

    Parameters
    ----------
    switch_id:
        Flat switch id within the topology.
    num_hosts:
        System size N (the reachability register width).
    down_reach:
        ``port -> destination mask`` for every down-direction port
        (including ports attached directly to hosts).  Masks must be
        pairwise disjoint.
    up_ports:
        Ports through which every host outside the subtree is reachable.
        Empty for top-level and unidirectional-MIN switches.
    host_ports:
        ``port -> host id`` for ports wired straight to a host NI.
    """

    def __init__(
        self,
        switch_id: int,
        num_hosts: int,
        down_reach: Dict[int, int],
        up_ports: Sequence[int],
        host_ports: Optional[Dict[int, int]] = None,
    ) -> None:
        self.switch_id = switch_id
        self.num_hosts = num_hosts
        self.down_reach = dict(down_reach)
        self.up_ports = list(up_ports)
        self.host_ports = dict(host_ports or {})
        union = 0
        for port, mask in self.down_reach.items():
            if mask == 0:
                raise RoutingError(
                    f"switch {switch_id} port {port} has empty reachability"
                )
            if union & mask:
                raise RoutingError(
                    f"switch {switch_id} down-port reachability overlaps"
                )
            union |= mask
        self.subtree_mask = union
        for port, host in self.host_ports.items():
            if self.down_reach.get(port) != 1 << host:
                raise RoutingError(
                    f"switch {switch_id} host port {port} must reach "
                    f"exactly host {host}"
                )

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def compute_requests(
        self,
        worm: Worm,
        mode: MulticastRoutingMode,
        up_selector: UpSelector,
        self_check: bool = False,
    ) -> List[PortRequest]:
        """Decode a worm's header into output-port branch requests.

        A descending worm (one that has turned at its LCA) may use only
        down-ports; an ascending worm goes up while any destination lies
        outside this switch's subtree, with the split between the up and
        down branches governed by ``mode``.
        """
        destinations = worm.destinations
        mask = destinations.mask
        if not mask & (mask - 1) and mask and not self_check:
            # one host: either mode gives the general decode's one branch
            if mask & self.subtree_mask:
                for port, reach in self.down_reach.items():
                    if mask & reach:
                        return [PortRequest(port, destinations, descending=True)]
            elif not worm.descending and self.up_ports:
                port = up_selector(self.up_ports, worm)
                return [PortRequest(port, destinations, descending=False)]
        return self._decode(worm, mode, up_selector, self_check)

    def _decode(
        self,
        worm: Worm,
        mode: MulticastRoutingMode,
        up_selector: UpSelector,
        self_check: bool,
    ) -> List[PortRequest]:
        """The general decode of :meth:`compute_requests`: any header, a
        worm that has no way to go included."""
        destinations = worm.destinations
        inside = destinations.intersect_mask(self.subtree_mask)
        outside = destinations - inside

        requests: List[PortRequest] = []
        if worm.descending:
            if outside:
                raise RoutingError(
                    f"descending worm at switch {self.switch_id} carries "
                    f"destinations outside its subtree: {outside!r}"
                )
            self._append_down_requests(inside, requests)
        elif not outside:
            # The worm reached (or started at) its LCA: turn around.
            self._append_down_requests(inside, requests)
        elif mode is MulticastRoutingMode.TURNAROUND:
            port = self._select_up(up_selector, worm, destinations)
            requests.append(PortRequest(port, destinations, descending=False))
        else:  # BRANCH_ON_UP
            port = self._select_up(up_selector, worm, outside)
            requests.append(PortRequest(port, outside, descending=False))
            if inside:
                self._append_down_requests(inside, requests)

        if self_check:
            validate_partition(destinations, requests)
        return requests

    def _append_down_requests(
        self, targets: DestinationSet, requests: List[PortRequest]
    ) -> None:
        for port, mask in self.down_reach.items():
            branch = targets.intersect_mask(mask)
            if branch:
                requests.append(PortRequest(port, branch, descending=True))

    def _select_up(
        self, up_selector: UpSelector, worm: Worm, carried: DestinationSet
    ) -> int:
        if not self.up_ports:
            raise RoutingError(
                f"switch {self.switch_id} has no up-port but worm "
                f"{worm!r} must ascend for {carried!r}"
            )
        return up_selector(self.up_ports, worm)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def is_host_port(self, port: int) -> bool:
        """True when ``port`` is wired straight to a host NI."""
        return port in self.host_ports

    def delivers_to(self, port: int) -> Optional[int]:
        """Host id delivered by ``port``, or ``None``."""
        return self.host_ports.get(port)

    def down_ports(self) -> List[int]:
        """Down-direction ports in ascending order."""
        return sorted(self.down_reach)

    def __repr__(self) -> str:
        return (
            f"SwitchRoutingTable(switch={self.switch_id}, "
            f"down={sorted(self.down_reach)}, up={self.up_ports}, "
            f"hosts={sorted(self.host_ports.values())})"
        )
