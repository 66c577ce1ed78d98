"""Host nodes: the message-passing endpoint above the NI.

A node owns the send-side software model of the paper's evaluation: every
packet send occupies the host CPU for a start-up overhead (serialized per
host), and software-multicast forwards additionally pay a receive
overhead.  Workloads talk to nodes, nodes talk to their NI, and the NI
talks flits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.schemes import MulticastScheme
from repro.errors import ConfigurationError
from repro.flits.destset import DestinationSet
from repro.flits.encoding import HeaderEncoding
from repro.flits.packet import Message, TrafficClass
from repro.flits.worm import Worm
from repro.host.interface import HostInterface
from repro.host.software_multicast import SoftwareMulticastEngine
from repro.metrics.collectors import MetricsCollector, Operation
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator

#: bucket upper edges (cycles) of the delivery-latency histogram
LATENCY_BUCKETS = (50, 100, 200, 400, 800, 1600, 3200, 6400)


@dataclass
class HostParams:
    """Host software model parameters.

    The defaults follow the paper's era: communication start-up dominates
    (refs [7, 11, 35]), so software overheads are tens of network cycles.
    """

    #: CPU cycles per packet send before the NI sees it
    sw_send_overhead: int = 40
    #: CPU cycles between a delivery and the first software forward
    sw_recv_overhead: int = 40
    #: largest packet payload; longer messages are segmented
    max_packet_payload_flits: int = 128

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range parameters."""
        if self.sw_send_overhead < 0 or self.sw_recv_overhead < 0:
            raise ConfigurationError("software overheads must be >= 0")
        if self.max_packet_payload_flits < 1:
            raise ConfigurationError("max_packet_payload_flits must be >= 1")


class HostNode:
    """One host's message API and CPU model."""

    def __init__(
        self,
        host_id: int,
        universe: int,
        sim: Simulator,
        interface: HostInterface,
        encoding: HeaderEncoding,
        collector: MetricsCollector,
        params: HostParams,
        sw_engine: SoftwareMulticastEngine,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        params.validate()
        self.host_id = host_id
        self.universe = universe
        self.sim = sim
        self.interface = interface
        self.encoding = encoding
        self.collector = collector
        self.params = params
        self.sw_engine = sw_engine
        self._cpu_ready = 0
        self._delivery_listeners = []
        # observability: instruments shared by name across the network,
        # registered only when a registry is given
        self._obs = metrics is not None
        if metrics is not None:
            self._c_injected = metrics.counter("host.messages_injected")
            self._c_delivered = metrics.counter("host.messages_delivered")
            self._h_latency = metrics.histogram(
                "host.delivery_latency_cycles", LATENCY_BUCKETS
            )
        interface.on_delivery(self._on_packet_delivered)

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def post_message(
        self,
        destinations: DestinationSet,
        payload_flits: int,
        traffic_class: TrafficClass,
        op_id: Optional[int] = None,
        not_before: Optional[int] = None,
        tag: Optional[object] = None,
    ) -> Message:
        """Ask this host to send one message.

        Latency is measured from *now* (the workload's request), so host
        CPU serialization and injection queueing count toward it, as in
        the paper.  ``not_before`` defers the CPU work (used for receive
        overheads of software multicast forwards).
        """
        now = self.sim.now
        message = Message(
            message_id=self.collector.new_message_id(),
            source=self.host_id,
            destinations=destinations,
            payload_flits=payload_flits,
            traffic_class=traffic_class,
            created_cycle=now,
            op_id=op_id,
            tag=tag,
        )
        expected_packets = math.ceil(
            payload_flits / self.params.max_packet_payload_flits
        )
        self.collector.register_message(message, expected_packets)
        if self._obs:
            self._c_injected.inc()
        start = max(not_before if not_before is not None else now,
                    self._cpu_ready, now)
        self._cpu_ready = start + self.params.sw_send_overhead * expected_packets
        # Calendar events for the current cycle have already run by the
        # time a component tick calls us, so the NI hand-off lands no
        # earlier than next cycle (enqueueing costs the host a cycle).
        inject_at = max(self._cpu_ready, now + 1)
        self.sim.schedule_at(inject_at, lambda: self._inject(message))
        return message

    def _inject(self, message: Message) -> None:
        first_packet_id = self.collector.new_packet_id()
        packets = message.segment(
            self.encoding,
            self.params.max_packet_payload_flits,
            first_packet_id,
        )
        # keep the collector's counter in step with the ids we consumed
        for _ in range(len(packets) - 1):
            self.collector.new_packet_id()
        for packet in packets:
            self.interface.enqueue(Worm.root(packet))

    def post_multicast(
        self,
        destinations: DestinationSet,
        payload_flits: int,
        scheme: MulticastScheme,
        tag: Optional[object] = None,
    ) -> Operation:
        """Start a multicast operation from this host.

        With the hardware scheme the destination set is split into as many
        worms as the header encoding needs (one for bit-string; one per
        product set for multiport).  With the software scheme the binomial
        engine drives unicast forwards.
        """
        if self.host_id in destinations:
            destinations = destinations.without(self.host_id)
        if not destinations:
            raise ConfigurationError(
                "multicast needs at least one destination besides the source"
            )
        operation = self.collector.register_operation(
            source=self.host_id,
            destinations=destinations,
            payload_flits=payload_flits,
            scheme=scheme.value,
            created_cycle=self.sim.now,
        )
        if scheme is MulticastScheme.HARDWARE:
            for phase_destinations in self.encoding.phases(destinations):
                self.post_message(
                    destinations=phase_destinations,
                    payload_flits=payload_flits,
                    traffic_class=TrafficClass.MULTICAST,
                    op_id=operation.op_id,
                    tag=tag,
                )
        else:
            self.sw_engine.start(self, operation, tag=tag)
        return operation

    def post_unicast(
        self, destination: int, payload_flits: int
    ) -> Message:
        """Send one background unicast message."""
        return self.post_message(
            destinations=DestinationSet.single(self.universe, destination),
            payload_flits=payload_flits,
            traffic_class=TrafficClass.UNICAST,
        )

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def add_delivery_listener(self, listener) -> None:
        """Call ``listener(node, message, now)`` on every message fully
        delivered at this host (collective engines hook in here)."""
        self._delivery_listeners.append(listener)

    def _on_packet_delivered(self, worm: Worm, now: int) -> None:
        packet = worm.packet
        message_done = self.collector.packet_delivered(packet, self.host_id, now)
        if not message_done:
            return
        if self._obs:
            self._c_delivered.inc()
            self._h_latency.observe(now - packet.message.created_cycle)
        if (
            packet.traffic_class is TrafficClass.SW_MULTICAST
            and packet.message.op_id is not None
        ):
            self.sw_engine.on_delivery(
                self, packet.message.op_id, packet.message.payload_flits
            )
        for listener in self._delivery_listeners:
            listener(self, packet.message, now)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def cpu_busy_until(self) -> int:
        """Cycle at which the host CPU becomes free."""
        return self._cpu_ready

    def idle(self) -> bool:
        """True when the CPU is free and the NI has nothing queued."""
        return self._cpu_ready <= self.sim.now and self.interface.idle()

    def __repr__(self) -> str:
        return f"HostNode({self.host_id})"


def allocate_nodes(
    sim: Simulator,
    interfaces: List[HostInterface],
    encoding: HeaderEncoding,
    collector: MetricsCollector,
    params: HostParams,
    metrics: Optional[MetricsRegistry] = None,
) -> List[HostNode]:
    """Build one node per interface, sharing a software multicast engine."""
    engine = SoftwareMulticastEngine()
    universe = len(interfaces)
    return [
        HostNode(
            host_id=interface.host_id,
            universe=universe,
            sim=sim,
            interface=interface,
            encoding=encoding,
            collector=collector,
            params=params,
            sw_engine=engine,
            metrics=metrics,
        )
        for interface in interfaces
    ]
