"""Host network interface: flit-level injection and ejection.

The NI injects queued worms one flit per cycle (subject to link credits)
and sinks arriving flits at full rate, handing completed packets to the
host node.  Its receive buffer is modelled as ample: ejected flits free
their credit immediately, so the network is never back-pressured by a
host that is merely receiving — matching the paper's assumption that
reception bandwidth at the destination NI is not the bottleneck.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.errors import ProtocolError
from repro.flits.flit import Flit
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.sim.component import Component
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switches.link import Link

DeliveryCallback = Callable[[Worm, int], None]


class HostInterface(Component):
    """One host's injection/ejection engine.

    ``rx_depth`` is the receive-FIFO depth advertised to the switch as
    credits.  Credits are returned as flits are consumed, so the depth
    matters only relative to the credit round-trip time: on long links a
    shallow FIFO throttles ejection (see
    ``tests/switches/test_central_buffer.py::TestPipelineTiming``).
    """

    #: default receive-FIFO depth
    RX_DEPTH = 4

    def __init__(
        self,
        host_id: int,
        tracer: Tracer = NULL_TRACER,
        rx_depth: int = RX_DEPTH,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        super().__init__(f"ni{host_id}")
        if rx_depth < 1:
            raise ProtocolError("rx_depth must be at least 1")
        self.host_id = host_id
        self.rx_depth = rx_depth
        self.tracer = tracer
        # network-wide NI totals, shared by name across all interfaces;
        # guarded by the captured flag so the uninstrumented path pays a
        # single boolean test (the REP005 contract)
        self._obs = metrics.enabled
        self._c_injected = metrics.counter("ni.flits_injected")
        self._c_ejected = metrics.counter("ni.flits_ejected")
        self._c_blocked = metrics.counter("ni.blocked_cycles")
        self.out_link: Optional[Link] = None
        self.in_link: Optional[Link] = None
        self._inject: Deque[Worm] = deque()
        self._inject_cursor = 0
        #: reused drain buffer — the per-cycle eject loop is allocation-free
        self._rx_scratch: List[Flit] = []
        self._rx_worm: Optional[Worm] = None
        self._rx_count = 0
        self._on_delivery: Optional[DeliveryCallback] = None
        #: flits ever injected / ejected (statistics)
        self.flits_injected = 0
        self.flits_ejected = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect_out(self, link: Link) -> None:
        """Wire the injection link toward the switch and register this NI
        as its credit waker (once the link has refused it a credit, the
        next one to mature schedules a tick)."""
        if self.out_link is not None:
            raise ProtocolError(f"{self.name}: out link already wired")
        self.out_link = link
        link.wake_on_credit(self)

    def connect_in(self, link: Link) -> None:
        """Wire the ejection link from the switch and declare our depth.

        Also registers this NI as the link's arrival waker, so ejection
        needs no polling: the NI ticks exactly on cycles a flit arrives.
        """
        if self.in_link is not None:
            raise ProtocolError(f"{self.name}: in link already wired")
        self.in_link = link
        link.set_credits(self.rx_depth)
        link.wake_on_arrival(self)

    def on_delivery(self, callback: DeliveryCallback) -> None:
        """Register the node's packet-delivery handler."""
        self._on_delivery = callback

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def enqueue(self, worm: Worm) -> None:
        """Queue a root worm for injection (FIFO).

        Wakes the NI for the current cycle: enqueues happen from host
        calendar events, which the kernel runs before ticks, so injection
        starts this very cycle — exactly as under the dense kernel.
        """
        self._inject.append(worm)
        self.wake_now()

    @property
    def injection_backlog(self) -> int:
        """Worms queued or partially injected."""
        return len(self._inject)

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self._eject(now)
        sent = self._inject_one(now)
        # active-set re-arm: keep ticking while flits are flowing out.  A
        # credit-blocked NI sleeps instead — the out-link's credit hook
        # wakes it exactly when the next credit matures.  Ejection is
        # purely arrival-driven — the in-link's arrival hook wakes us per
        # flit — so a half-reassembled worm alone needs no polling.
        if self._inject and sent:
            self.wake_at(now + 1)
        elif self._obs and self._inject:
            # blocked with telemetry on: poll so blocked_cycles counts
            # every stalled cycle, exactly as under the dense kernel (the
            # extra ticks are behaviourally inert — sending still gates
            # on can_send, which flips on the same cycle the credit hook
            # would have woken us)
            self._c_blocked.inc()
            self.wake_at(now + 1)

    def _eject(self, now: int) -> None:
        link = self.in_link
        if link is None or not link.pending_arrival(now):
            return
        scratch = self._rx_scratch
        del scratch[:]
        link.receive_into(now, scratch)
        for flit in scratch:
            link.return_credit(now)
            self._absorb(flit, now)

    def _absorb(self, flit: Flit, now: int) -> None:
        if self._rx_worm is None:
            if not flit.is_head:
                raise ProtocolError(
                    f"{self.name}: body flit {flit!r} without head"
                )
            worm = flit.worm
            if not worm.destinations.is_singleton() or (
                self.host_id not in worm.destinations
            ):
                raise ProtocolError(
                    f"{self.name}: received worm addressed to "
                    f"{worm.destinations!r}"
                )
            self._rx_worm = worm
            self._rx_count = 0
        if flit.worm is not self._rx_worm or flit.index != self._rx_count:
            raise ProtocolError(
                f"{self.name}: out-of-order flit {flit!r} "
                f"(expected index {self._rx_count})"
            )
        self._rx_count += 1
        self.flits_ejected += 1
        if self._obs:
            self._c_ejected.inc()
        self.sim.note_progress()
        if flit.is_tail:
            worm = self._rx_worm
            self._rx_worm = None
            if self.tracer.enabled:
                self.tracer.emit(
                    now, self.name, "packet_delivered",
                    packet=worm.packet.packet_id,
                )
            if self._on_delivery is not None:
                self._on_delivery(worm, now)

    def _inject_one(self, now: int) -> bool:
        """Push the next flit out; True when one was sent."""
        if self.out_link is None or not self._inject:
            return False
        worm = self._inject[0]
        if not self.out_link.can_send(now):
            return False
        if self._inject_cursor == 0 and worm.packet.injected_cycle is None:
            worm.packet.injected_cycle = now
            if self.tracer.enabled:
                self.tracer.emit(
                    now, self.name, "inject_start",
                    packet=worm.packet.packet_id,
                    flits=worm.size_flits,
                    created=worm.packet.message.created_cycle,
                )
        self.out_link.send(now, Flit(worm, self._inject_cursor))
        self._inject_cursor += 1
        self.flits_injected += 1
        if self._obs:
            self._c_injected.inc()
        self.sim.note_progress()
        if self._inject_cursor == worm.size_flits:
            self._inject.popleft()
            self._inject_cursor = 0
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when nothing is being injected or reassembled."""
        return not self._inject and self._rx_worm is None
