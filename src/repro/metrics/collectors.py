"""Latency, throughput and collective-operation metrics.

Latency definitions follow the paper (and Nupairoj/Ni, ref [24]):

* *message latency* is measured per delivery, from the cycle the workload
  generated the message (host queueing and software overheads included)
  to the cycle the tail flit reaches the destination NI;
* *multicast latency* of an operation is primarily the latency of the
  **last** received copy (metric (a) of ref [24], the one the paper
  argues matters), with the average over destinations (metric (b)) also
  recorded.

Sampling is windowed: only messages/operations *created* inside
``[sample_start, sample_end)`` contribute, so warm-up and drain
transients can be excluded in steady-state experiments.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, Packet, TrafficClass
from repro.sim.stats import RunningStats


class ClassStats:
    """Per-traffic-class delivery statistics."""

    def __init__(self) -> None:
        self.latency = RunningStats()
        self.deliveries = 0
        self.payload_flits = 0

    def record(self, latency: float, payload_flits: int) -> None:
        """Record one in-window delivery."""
        self.latency.add(latency)
        self.deliveries += 1
        self.payload_flits += payload_flits


class Operation:
    """One collective operation (multicast), however implemented."""

    def __init__(
        self,
        op_id: int,
        source: int,
        destinations: DestinationSet,
        payload_flits: int,
        scheme: str,
        created_cycle: int,
    ) -> None:
        self.op_id = op_id
        self.source = source
        self.destinations = destinations
        self.payload_flits = payload_flits
        self.scheme = scheme
        self.created_cycle = created_cycle
        self.arrival_cycles: Dict[int, int] = {}
        self.completed_cycle: Optional[int] = None

    def record_arrival(self, host: int, now: int) -> bool:
        """Note delivery of the operation's payload at ``host``.

        Returns True when this arrival completed the operation.
        """
        if host not in self.destinations:
            raise ProtocolError(
                f"operation {self.op_id}: arrival at non-member host {host}"
            )
        if host in self.arrival_cycles:
            raise ProtocolError(
                f"operation {self.op_id}: duplicate arrival at host {host}"
            )
        self.arrival_cycles[host] = now
        if len(self.arrival_cycles) == len(self.destinations):
            self.completed_cycle = now
            return True
        return False

    @property
    def last_latency(self) -> Optional[int]:
        """Latency of the last received copy (the paper's metric)."""
        if self.completed_cycle is None:
            return None
        return self.completed_cycle - self.created_cycle

    @property
    def average_latency(self) -> Optional[float]:
        """Mean per-destination latency (metric (b) of ref [24])."""
        if self.completed_cycle is None:
            return None
        total = sum(self.arrival_cycles.values())
        return total / len(self.arrival_cycles) - self.created_cycle


class _MessageProgress:
    """Per-destination packet counting for one message."""

    __slots__ = ("message", "expected_packets", "remaining")

    def __init__(self, message: Message, expected_packets: int) -> None:
        self.message = message
        self.expected_packets = expected_packets
        self.remaining = {
            host: expected_packets for host in message.destinations
        }


class MetricsCollector:
    """Central id allocation, delivery accounting and statistics."""

    def __init__(self, num_hosts: int) -> None:
        self.num_hosts = num_hosts
        self._message_ids = itertools.count()
        self._packet_ids = itertools.count()
        self._op_ids = itertools.count()
        self._progress: Dict[int, _MessageProgress] = {}
        self._operations: Dict[int, Operation] = {}
        self.classes: Dict[TrafficClass, ClassStats] = {
            tc: ClassStats() for tc in TrafficClass
        }
        self.op_last_latency = RunningStats()
        self.op_average_latency = RunningStats()
        self.sample_start = 0
        self.sample_end = math.inf
        self.messages_created = 0
        self.operations_created = 0

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------
    def new_message_id(self) -> int:
        """Allocate the next message id."""
        return next(self._message_ids)

    def new_packet_id(self) -> int:
        """Allocate the next packet id."""
        return next(self._packet_ids)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def set_sample_window(self, start: int, end: float = math.inf) -> None:
        """Only messages/operations created in [start, end) are sampled."""
        self.sample_start = start
        self.sample_end = end

    def _in_window(self, created_cycle: int) -> bool:
        return self.sample_start <= created_cycle < self.sample_end

    def register_message(self, message: Message, expected_packets: int) -> None:
        """Track a message until it is delivered at every destination."""
        if message.message_id in self._progress:
            raise ProtocolError(
                f"message {message.message_id} registered twice"
            )
        self._progress[message.message_id] = _MessageProgress(
            message, expected_packets
        )
        self.messages_created += 1

    def register_operation(
        self,
        source: int,
        destinations: DestinationSet,
        payload_flits: int,
        scheme: str,
        created_cycle: int,
    ) -> Operation:
        """Create and track a multicast operation."""
        operation = Operation(
            op_id=next(self._op_ids),
            source=source,
            destinations=destinations,
            payload_flits=payload_flits,
            scheme=scheme,
            created_cycle=created_cycle,
        )
        self._operations[operation.op_id] = operation
        self.operations_created += 1
        return operation

    def operation(self, op_id: int) -> Optional[Operation]:
        """Look up a tracked operation."""
        return self._operations.get(op_id)

    # ------------------------------------------------------------------
    # delivery accounting (called by host nodes)
    # ------------------------------------------------------------------
    def packet_delivered(self, packet: Packet, host: int, now: int) -> bool:
        """Record a packet's arrival; True when its message completed at
        ``host`` (all packets of the message received there)."""
        progress = self._progress.get(packet.message.message_id)
        if progress is None:
            raise ProtocolError(
                f"packet {packet.packet_id} of unregistered message "
                f"{packet.message.message_id}"
            )
        remaining = progress.remaining.get(host)
        if remaining is None or remaining <= 0:
            raise ProtocolError(
                f"message {packet.message.message_id}: unexpected packet "
                f"at host {host}"
            )
        progress.remaining[host] = remaining - 1
        if remaining - 1 > 0:
            return False
        self._message_delivered(progress, host, now)
        return True

    def _message_delivered(
        self, progress: _MessageProgress, host: int, now: int
    ) -> None:
        message = progress.message
        if self._in_window(message.created_cycle):
            self.classes[message.traffic_class].record(
                now - message.created_cycle, message.payload_flits
            )
        if message.op_id is not None:
            operation = self._operations.get(message.op_id)
            if operation is not None and host in operation.destinations:
                finished = operation.record_arrival(host, now)
                if finished and self._in_window(operation.created_cycle):
                    self.op_last_latency.add(operation.last_latency)
                    self.op_average_latency.add(operation.average_latency)
        if all(count == 0 for count in progress.remaining.values()):
            del self._progress[message.message_id]

    # ------------------------------------------------------------------
    # completion queries (used as run predicates)
    # ------------------------------------------------------------------
    @property
    def outstanding_messages(self) -> int:
        """Messages not yet delivered at every destination."""
        return len(self._progress)

    @property
    def outstanding_operations(self) -> int:
        """Operations not yet completed."""
        return sum(
            1 for op in self._operations.values()
            if op.completed_cycle is None
        )

    def completed_operations(self) -> List[Operation]:
        """Every finished operation, in id order."""
        return [
            op for op in sorted(self._operations.values(),
                                key=lambda o: o.op_id)
            if op.completed_cycle is not None
        ]
