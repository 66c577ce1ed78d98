"""Shared machinery for the two switch architectures."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.routing.base import (
    MulticastRoutingMode,
    PortRequest,
    UpPortPolicy,
    make_up_selector,
)
from repro.routing.table import SwitchRoutingTable
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switches.link import Link


class ReplicationMode(enum.Enum):
    """How a switch forwards the branches of a multidestination worm.

    ASYNCHRONOUS (paper's choice)
        Each branch forwards flits at its own pace; a blocked branch
        never stalls its siblings.  Requires the full-packet buffering
        guarantee for deadlock freedom.
    SYNCHRONOUS (the alternative of Chiang/Ni, ref [6])
        All branches forward each flit in lock-step; a single blocked
        branch stalls the whole worm.  Modelled on the input-buffer
        switch (where the worm is fully buffered, so lock-step coupling
        costs performance, not safety) to quantify why the paper rejects
        it.
    """

    ASYNCHRONOUS = "asynchronous"
    SYNCHRONOUS = "synchronous"


@dataclass
class SwitchSettings:
    """Microarchitectural parameters shared by both switch designs.

    The defaults model the paper's SP-Switch-like baseline: 8-port
    switches, a 4 KB central buffer in 8-flit (16-byte) chunks, and
    central-buffer bandwidth matching one flit per port per cycle (the
    "performs as well as a chunk-wide crossbar" alternative of ref [33]).
    """

    #: per-input synchronisation FIFO of the central-buffer switch
    input_fifo_depth: int = 8
    #: shared central buffer capacity, in flits
    central_buffer_flits: int = 2048
    #: chunk granularity of the central buffer, in flits
    chunk_flits: int = 8
    #: total flits writable into the central buffer per cycle
    cb_write_bandwidth: int = 8
    #: total flits readable out of the central buffer per cycle
    cb_read_bandwidth: int = 8
    #: per-input buffer of the input-buffer switch, in flits
    input_buffer_flits: int = 256
    #: largest worm in the system; sizes the central buffer's per-input
    #: quota (the deadlock-freedom guarantee) and must fit input buffers
    max_packet_flits: int = 160
    #: cycles from header completion to routing decision
    routing_delay: int = 2
    #: LCA traversal scheme for multidestination worms
    multicast_mode: MulticastRoutingMode = MulticastRoutingMode.TURNAROUND
    #: branch forwarding discipline (synchronous only on the IB switch)
    replication: ReplicationMode = ReplicationMode.ASYNCHRONOUS
    #: how equivalent up-ports are chosen
    up_port_policy: UpPortPolicy = UpPortPolicy.RANDOM
    #: enable expensive internal invariant checks (tests)
    self_check: bool = False
    #: extra fields reserved for experiment-specific knobs
    extras: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range parameters."""
        if self.input_fifo_depth < 1:
            raise ConfigurationError("input_fifo_depth must be >= 1")
        if self.chunk_flits < 1:
            raise ConfigurationError("chunk_flits must be >= 1")
        if self.central_buffer_flits < self.chunk_flits:
            raise ConfigurationError(
                "central buffer must hold at least one chunk"
            )
        if self.cb_write_bandwidth < 1 or self.cb_read_bandwidth < 1:
            raise ConfigurationError("central buffer bandwidth must be >= 1")
        if self.input_buffer_flits < 2:
            raise ConfigurationError("input_buffer_flits must be >= 2")
        if self.routing_delay < 0:
            raise ConfigurationError("routing_delay must be >= 0")
        if self.max_packet_flits < 2:
            raise ConfigurationError("max_packet_flits must be >= 2")


class SwitchBase(Component):
    """Ports, links and routing plumbing common to both architectures."""

    def __init__(
        self,
        name: str,
        table: SwitchRoutingTable,
        num_ports: int,
        settings: SwitchSettings,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        super().__init__(name)
        settings.validate()
        self.table = table
        self.num_ports = num_ports
        self.settings = settings
        self.tracer = tracer
        self.metrics = metrics
        self.in_links: List[Optional[Link]] = [None] * num_ports
        self.out_links: List[Optional[Link]] = [None] * num_ports
        self._up_selector = None

    # ------------------------------------------------------------------
    # wiring (done by the network builder)
    # ------------------------------------------------------------------
    def input_credit_depth(self, port: int) -> int:
        """Receive-buffer depth advertised to the upstream sender."""
        raise NotImplementedError

    def connect_in(self, port: int, link: Link) -> None:
        """Wire an incoming link and declare our buffer depth on it.

        Also registers this switch as the link's arrival waker: a send
        on the link schedules a tick at the delivery cycle, so an idle
        switch needs no polling to notice new worms — and marks ``port``
        in ``_rx_pending``, so a woken packed switch drains only the
        in-links that hold flits.
        """
        if self.in_links[port] is not None:
            raise ProtocolError(f"{self.name}: input port {port} already wired")
        self.in_links[port] = link
        link.set_credits(self.input_credit_depth(port))
        link.wake_on_arrival(self, port)

    def connect_out(self, port: int, link: Link) -> None:
        """Wire an outgoing link and register this switch as its credit
        waker (once the link has refused it a credit, the next one to
        mature schedules a tick)."""
        if self.out_links[port] is not None:
            raise ProtocolError(f"{self.name}: output port {port} already wired")
        self.out_links[port] = link
        link.wake_on_credit(self)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        rng = sim.rng.stream(f"switch.{self.name}.uproute")
        self._up_selector = make_up_selector(
            self.settings.up_port_policy,
            rng=rng,
            credit_view=self._up_port_credits,
        )

    def _up_port_credits(self, port: int) -> int:
        """Credits the adaptive up-port policy sees on ``port``: what
        the sender holds at the start of this cycle on the
        one-flit-per-cycle timeline.  A committed span took the credits
        of its later members up front (the link's own counter may even
        be negative meanwhile), so the slots it still holds from this
        cycle on are added back."""
        link = self.out_links[port]
        if link is None:
            return -1
        now = self.sim.now
        return link.credits(now) + max(0, link._last_send_cycle - now + 1)

    def compute_requests(self, worm: Worm) -> List[PortRequest]:
        """Decode a worm's header into output-port branch requests."""
        if self._up_selector is None:
            raise ProtocolError(f"{self.name}: switch not attached to simulator")
        return self.table.compute_requests(
            worm,
            mode=self.settings.multicast_mode,
            up_selector=self._up_selector,
            self_check=self.settings.self_check,
        )
