"""Software (unicast-based) multicast: the binomial U-MIN baseline.

The paper compares its hardware designs against the binomial-tree
software multicast of Xu, Gui and Ni (ref [38]), whose destination
ordering eliminates link contention among the unicasts of one multicast
on a MIN.  We reproduce that scheme: destinations are sorted by host id —
on the k-ary n-tree, id order is subtree order, so each recursive halving
splits along subtree boundaries and the simultaneous unicasts of a phase
use disjoint links — and the sorted list is folded into a binomial tree:
in each round every informed host sends to the first member of the upper
half of its remaining list, taking ``ceil(log2(d + 1))`` phases for *d*
destinations.

Each hop is an ordinary unicast message (traffic class
``SW_MULTICAST``), pays the host's software send overhead, and each
forwarding host additionally pays a receive overhead before its first
forward — the start-up costs that make software multicast slow on real
machines (refs [7, 11, 35]).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

from repro.flits.destset import DestinationSet
from repro.flits.packet import TrafficClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.node import HostNode
    from repro.metrics.collectors import Operation


def binomial_schedule(
    source: int, destinations: Sequence[int]
) -> Dict[int, List[int]]:
    """Forwarding children of every participant, in send order.

    The returned map gives, for the source and each destination, the list
    of hosts it must forward the message to, first send first.  The tree
    is the standard binomial fold over ``[source] + sorted(destinations)``:
    the current holder repeatedly peels off the upper half of its list and
    delegates it to that half's first member.

    >>> binomial_schedule(0, [1, 2, 3, 4, 5, 6, 7])
    {0: [4, 2, 1], 4: [6, 5], 6: [7], 2: [3]}
    """
    children: Dict[int, List[int]] = {}
    _fold([source] + sorted(destinations), children)
    return children


def _fold(group: List[int], children: Dict[int, List[int]]) -> None:
    # group[0] already holds the message and owns delivering to the rest
    while len(group) > 1:
        mid = (len(group) + 1) // 2
        upper = group[mid:]
        children.setdefault(group[0], []).append(upper[0])
        _fold(upper, children)
        group = group[:mid]


class SoftwareMulticastEngine:
    """Drives the forwarding of software multicast operations.

    One engine is shared by all hosts of a network.  When a multicast is
    posted with the software scheme, the engine computes the binomial
    schedule once, lets the source send its first-round unicasts, and —
    as copies arrive — triggers each forwarding host's sends after that
    host's receive overhead.
    """

    def __init__(self) -> None:
        self._children_by_op: Dict[int, Dict[int, List[int]]] = {}
        self._tag_by_op: Dict[int, object] = {}

    def start(
        self, node: "HostNode", operation: "Operation", tag: object = None
    ) -> None:
        """Begin a software multicast at its source node."""
        schedule = binomial_schedule(
            operation.source, list(operation.destinations)
        )
        self._children_by_op[operation.op_id] = schedule
        if tag is not None:
            self._tag_by_op[operation.op_id] = tag
        self._forward(node, operation.op_id, operation.payload_flits,
                      receive_overhead=0)

    def on_delivery(
        self, node: "HostNode", op_id: int, payload_flits: int
    ) -> None:
        """A host received its copy; forward to its subtree, if any."""
        self._forward(node, op_id, payload_flits,
                      receive_overhead=node.params.sw_recv_overhead)

    def _forward(
        self,
        node: "HostNode",
        op_id: int,
        payload_flits: int,
        receive_overhead: int,
    ) -> None:
        schedule = self._children_by_op.get(op_id)
        if schedule is None:
            return
        children = schedule.get(node.host_id, [])
        if not children:
            self._maybe_forget(op_id, node)
            return
        ready = node.sim.now + receive_overhead
        tag = self._tag_by_op.get(op_id)
        for child in children:
            node.post_message(
                destinations=DestinationSet.single(node.universe, child),
                payload_flits=payload_flits,
                traffic_class=TrafficClass.SW_MULTICAST,
                op_id=op_id,
                not_before=ready,
                tag=tag,
            )
        self._maybe_forget(op_id, node)

    def _maybe_forget(self, op_id: int, node: "HostNode") -> None:
        """Drop the schedule once the operation has fully completed."""
        operation = node.collector.operation(op_id)
        if operation is not None and operation.completed_cycle is not None:
            self._children_by_op.pop(op_id, None)
            self._tag_by_op.pop(op_id, None)
