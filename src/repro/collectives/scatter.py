"""Personalized scatter over the simulated network.

The root sends a *different* block to every participant.
Multidestination worms carry one payload to many destinations, so
personalized traffic cannot ride a single worm; the root either sends
d serialized unicasts (direct) or delegates halves of the block set down
the binomial tree the tree collectives use (tree), trading total bytes
moved for start-up count.

Block sizes are in flits; a message that carries ``k`` blocks is simply
``k * block_flits`` long, so wire serialization of the shrinking bundles
is modelled exactly.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence

from repro.collectives.barrier import BinomialTree
from repro.errors import ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, TrafficClass
from repro.host.node import HostNode


class ScatterStrategy(enum.Enum):
    """How the root distributes personalized blocks."""

    #: the root sends every block itself (d serialized start-ups)
    DIRECT = "direct"
    #: halves of the block set are delegated down a binomial tree
    TREE = "tree"


class ScatterOperation(BinomialTree):
    """One scatter: a personalized block from the root to everyone."""

    def __init__(
        self,
        scatter_id: int,
        root: int,
        participants: Sequence[int],
        block_flits: int,
        strategy: ScatterStrategy,
    ) -> None:
        super().__init__(root, participants)
        self.scatter_id = scatter_id
        self.block_flits = block_flits
        self.strategy = strategy
        self.started_cycle: Optional[int] = None
        self.block_cycles: Dict[int, int] = {}
        self.completed_cycle: Optional[int] = None

    @property
    def complete(self) -> bool:
        """True when every non-root participant has its block."""
        return self.completed_cycle is not None

    @property
    def last_latency(self) -> Optional[int]:
        """Start to the last block delivery."""
        if self.completed_cycle is None or self.started_cycle is None:
            return None
        return self.completed_cycle - self.started_cycle


class ScatterEngine:
    """Drives scatter protocols over a network's nodes."""

    BUNDLE = "scatter_bundle"

    def __init__(self, nodes: Sequence[HostNode]) -> None:
        self.nodes = list(nodes)
        self._operations: Dict[int, ScatterOperation] = {}
        for node in self.nodes:
            node.add_delivery_listener(self._on_delivery)

    def create(
        self,
        root: int,
        participants: Sequence[int],
        block_flits: int = 8,
        strategy: ScatterStrategy = ScatterStrategy.TREE,
    ) -> ScatterOperation:
        """Register a scatter instance (no messages yet)."""
        operation = ScatterOperation(
            len(self._operations), root, participants, block_flits, strategy
        )
        self._operations[operation.scatter_id] = operation
        return operation

    def start(self, operation: ScatterOperation) -> None:
        """The root begins distributing now."""
        root_node = self.nodes[operation.root]
        operation.started_cycle = root_node.sim.now
        operation.block_cycles[operation.root] = root_node.sim.now
        if operation.strategy is ScatterStrategy.DIRECT:
            for host in operation.participants:
                if host == operation.root:
                    continue
                root_node.post_message(
                    destinations=DestinationSet.single(
                        root_node.universe, host
                    ),
                    payload_flits=operation.block_flits,
                    traffic_class=TrafficClass.CONTROL,
                    tag=(self.BUNDLE, operation.scatter_id, (host,)),
                )
        else:
            self._delegate(operation, root_node, ready=root_node.sim.now)
        self._maybe_complete(operation)

    # ------------------------------------------------------------------
    # protocol machinery
    # ------------------------------------------------------------------
    def _delegate(
        self, operation: ScatterOperation, node: HostNode, ready: int
    ) -> None:
        """Send each child its whole subtree's blocks in one message, the
        host's CPU starting no earlier than ``ready``."""
        for child in operation.children.get(node.host_id, []):
            bundle = tuple(operation.subtree(child))
            node.post_message(
                destinations=DestinationSet.single(node.universe, child),
                payload_flits=len(bundle) * operation.block_flits,
                traffic_class=TrafficClass.CONTROL,
                tag=(self.BUNDLE, operation.scatter_id, bundle),
                not_before=ready,
            )

    def _on_delivery(self, node: HostNode, message: Message, now: int) -> None:
        tag = message.tag
        if not isinstance(tag, tuple) or len(tag) != 3:
            return
        kind, scatter_id, bundle = tag
        if kind != self.BUNDLE:
            return
        operation = self._operations.get(scatter_id)
        if operation is None:
            return
        host = node.host_id
        if host in operation.block_cycles:
            raise ProtocolError(
                f"host {host} received its scatter block twice"
            )
        operation.block_cycles[host] = now
        if operation.strategy is ScatterStrategy.TREE and len(bundle) > 1:
            # forward the children's sub-bundles after the recv overhead
            self._delegate(
                operation, node,
                ready=node.sim.now + node.params.sw_recv_overhead,
            )
        self._maybe_complete(operation)

    def _maybe_complete(self, operation: ScatterOperation) -> None:
        if len(operation.block_cycles) == len(operation.participants):
            operation.completed_cycle = max(operation.block_cycles.values())
