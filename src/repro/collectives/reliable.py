"""Reliable multicast: ACKs, timeouts, and straggler retransmission.

The authors' follow-up (ref [34], "A Reliable Hardware Barrier
Synchronization Scheme") adds end-to-end reliability on top of
multidestination worms.  This module implements the host-level half of
that idea for data multicast:

* the source multicasts the payload and starts a timer;
* every destination acknowledges with a small unicast;
* on timeout, the source retransmits — as **one multidestination worm
  addressed to exactly the unacknowledged subset**, the key economy the
  mechanism enables (a unicast-based protocol would re-send per
  straggler).

Losses are injected at the receiving host (a configurable drop
probability models corrupted receipt, e.g. CRC failure at the adapter),
so the network invariants stay intact while the protocol faces real
loss.  With the drop probability at zero the protocol completes in one
round and adds only the ACK traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.schemes import MulticastScheme
from repro.errors import ConfigurationError, ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, TrafficClass
from repro.host.node import HostNode


class ReliableMulticastOperation:
    """One reliable multicast with its delivery state."""

    def __init__(
        self,
        op_id: int,
        source: int,
        destinations: Sequence[int],
        payload_flits: int,
    ) -> None:
        if not destinations:
            raise ConfigurationError("need at least one destination")
        self.op_id = op_id
        self.source = source
        self.destinations = sorted(destinations)
        self.payload_flits = payload_flits
        self.started_cycle: Optional[int] = None
        self.acked: Dict[int, int] = {}
        self.delivered: Dict[int, int] = {}
        self.rounds = 0
        self.drops = 0
        self.completed_cycle: Optional[int] = None

    @property
    def complete(self) -> bool:
        """True when every destination has acknowledged."""
        return self.completed_cycle is not None

    @property
    def missing(self) -> Sequence[int]:
        """Destinations that have not acknowledged yet."""
        return [d for d in self.destinations if d not in self.acked]

    @property
    def last_latency(self) -> Optional[int]:
        """Start to the last acknowledgement at the source."""
        if self.completed_cycle is None or self.started_cycle is None:
            return None
        return self.completed_cycle - self.started_cycle


class ReliableMulticastEngine:
    """Drives ACK/retransmit multicast over a network's host nodes.

    Parameters
    ----------
    nodes:
        The network's host nodes.
    drop_probability:
        Per-delivery probability that a destination's copy is discarded
        (models receive-side corruption); drawn from the network's seeded
        RNG, so runs replay exactly.
    timeout_cycles:
        How long the source waits for ACKs before retransmitting to the
        missing subset.
    max_rounds:
        Give-up bound; exceeded only if loss is persistent.
    """

    DATA = "rmc_data"
    ACK = "rmc_ack"

    def __init__(
        self,
        nodes: Sequence[HostNode],
        drop_probability: float = 0.0,
        timeout_cycles: int = 600,
        max_rounds: int = 20,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigurationError("drop_probability must be in [0, 1)")
        if timeout_cycles < 1:
            raise ConfigurationError("timeout_cycles must be >= 1")
        self.nodes = list(nodes)
        self.drop_probability = drop_probability
        self.timeout_cycles = timeout_cycles
        self.max_rounds = max_rounds
        self._operations: Dict[int, ReliableMulticastOperation] = {}
        self._rng = self.nodes[0].sim.rng.stream("reliable_multicast.loss")
        for node in self.nodes:
            node.add_delivery_listener(self._on_delivery)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def send(
        self,
        source: int,
        destinations: Sequence[int],
        payload_flits: int,
    ) -> ReliableMulticastOperation:
        """Start one reliable multicast from ``source`` now."""
        operation = ReliableMulticastOperation(
            len(self._operations), source, destinations, payload_flits
        )
        self._operations[operation.op_id] = operation
        operation.started_cycle = self.nodes[source].sim.now
        self._transmit(operation)
        return operation

    # ------------------------------------------------------------------
    # protocol machinery
    # ------------------------------------------------------------------
    def _transmit(self, operation: ReliableMulticastOperation) -> None:
        missing = operation.missing
        if not missing:
            return
        operation.rounds += 1
        if operation.rounds > self.max_rounds:
            raise ProtocolError(
                f"reliable multicast {operation.op_id} exceeded "
                f"{self.max_rounds} rounds; loss too persistent"
            )
        node = self.nodes[operation.source]
        node.post_multicast(
            DestinationSet.from_ids(node.universe, missing),
            operation.payload_flits,
            MulticastScheme.HARDWARE,
            tag=(self.DATA, operation.op_id),
        )
        round_number = operation.rounds
        node.sim.schedule(
            self.timeout_cycles,
            lambda: self._on_timeout(operation, round_number),
        )

    def _on_timeout(
        self, operation: ReliableMulticastOperation, round_number: int
    ) -> None:
        if operation.complete or operation.rounds != round_number:
            return
        self._transmit(operation)

    def _on_delivery(self, node: HostNode, message: Message, now: int) -> None:
        tag = message.tag
        if not isinstance(tag, tuple) or len(tag) != 2:
            return
        kind, op_id = tag
        operation = self._operations.get(op_id)
        if operation is None:
            return
        if kind == self.DATA:
            if node.host_id in operation.delivered:
                return  # late duplicate; the source already has our ACK
            if self._rng.random() < self.drop_probability:
                operation.drops += 1
                return  # corrupted receipt: stay silent, await retransmit
            operation.delivered.setdefault(node.host_id, now)
            node.post_message(
                destinations=DestinationSet.single(
                    node.universe, operation.source
                ),
                payload_flits=1,
                traffic_class=TrafficClass.CONTROL,
                tag=(self.ACK, op_id),
            )
        elif kind == self.ACK:
            if node.host_id != operation.source:
                raise ProtocolError("ACK delivered to a non-source host")
            sender = message.source
            if sender not in operation.acked:
                operation.acked[sender] = now
                if not operation.missing:
                    operation.completed_cycle = now
