"""The switch skeleton: everything the two architectures share.

The paper's central-buffer (section 4) and input-buffer (section 5)
switches differ only in where an accepted worm is buffered and how the
outputs read it.  The rest is the same hardware and lives here, once:
ports and links, in-order worm reassembly at an input port, the
routing-delay wait, the bit-string decode, and ``tick`` with its
dormancy decision.  An architecture subclasses :class:`Ingress` with its
own cursors and :class:`SwitchBase` with its :meth:`~SwitchBase._phases`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Tuple, Type

from repro.errors import ConfigurationError, ProtocolError
from repro.flits.packed import SpanQueue, flit_repr
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry
from repro.routing.base import (
    MulticastRoutingMode,
    PortRequest,
    UpPortPolicy,
    make_up_selector,
)
from repro.routing.table import SwitchRoutingTable
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.switches.link import Link
from repro.switches.ports import PORTS_OF


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


#: per-input receive bindings: (receive_span, span queue)
_RxPort = Tuple[Callable[..., object], SpanQueue]


class Ingress:
    """Per-worm arrival state at one input port (flits arrive in order,
    so ``received`` is a cursor); architectures add their own cursors.

    A span record is taken whole once its head has landed, so
    ``received`` may run ahead of what is there: it counts every member
    taken, and :meth:`landed_by` is the one reader that says how many of
    them have landed — the mirror of ``StoredPacket.written_by``.  One
    scalar, ``last_landing``, dates them all.  Members land on
    consecutive cycles, records in the order they were sent, and a
    record is taken only once its head has landed — by which cycle every
    record sent before it has landed whole, those of this worm included.
    So at any cycle from the take on, the taken members still in flight
    are exactly the newest record's last ``last_landing - cycle``.
    """

    __slots__ = ("worm", "received", "last_landing", "header_done_cycle")

    def __init__(self, worm: Worm) -> None:
        self.worm = worm
        #: flits taken off the in-link, landed or not
        self.received = 0
        #: cycle the newest taken flit lands
        self.last_landing = -1
        #: cycle the header completes — ahead, like the flit that
        #: completes it, when its record was taken at an earlier member's
        #: landing; the routing delay runs from here
        self.header_done_cycle: Optional[int] = None

    def landed_by(self, now: int) -> int:
        """Flits of the worm that have landed by cycle ``now`` — the
        current cycle or a later one.  No flit is consumed, counted
        blocked or routed on before the cycle it lands: every mover
        tests its cursor against this, not against ``received``."""
        ahead = self.last_landing - now
        return self.received - ahead if ahead > 0 else self.received


def committed_run(
    on_hand: int,
    body: int,
    now: int,
    in_link: Optional[Link] = None,
    worm: Optional[Worm] = None,
    received: int = 0,
    *,
    out_link: Optional[Link] = None,
    space: int = 0,
) -> int:
    """Flits a mover that contends for nothing may commit at ``now`` as
    one run, one flit per cycle: at least 2, or 0 for the single-flit
    path.  A run is a *supply* — flits whose turn finds them there — cut
    to the worm's body and to a *drain window* that is certain to take
    them.

    The supply is the ``on_hand`` flits between the mover's cursor and
    what was handed to it, dated ahead or not — taken off the in-link
    (``Ingress.received``) for a central-buffer bypass feed or writer
    and for an input-buffer branch, written (``StoredPacket.
    flits_written``) for a central-buffer branch cursor.  The caller has
    checked that the mover's *next* flit is there now
    (``Ingress.landed_by`` / ``StoredPacket.written_by``); the flits
    behind it were dated one per cycle and the mover takes at most one
    per cycle, so each is there by its turn.  Plus, given the
    ``in_link`` the worm arrives on as ``worm`` with ``received`` flits
    taken, the members of the link's head span record — still in flight,
    or it would have been taken — that land no later than their turn
    (the record continues the worm where the taken flits end, and
    member ``m`` arrives at ``arrival + m`` for a turn at
    ``now + on_hand + m``).
    ``body`` is what the worm has left before its tail, which is never a
    member: it leaves through the single-flit path, which releases the
    output, pops the input FIFO, frees the last chunk and exposes the
    next worm at the cycle they are due.  The window is ``out_link``'s
    credit window for a mover that sends, or with no ``out_link`` the
    ``space`` a central-buffer writer already owns.

    The output or the buffer space is the mover's own and it contends
    for nothing else, so no other event can delay those moves — the run
    is exactly what the per-flit path would do over the next cycles.
    """
    run = on_hand
    if in_link is not None:
        head = in_link._in_flight.head()
        if (
            head is not None
            and head[1] is worm
            and head[2] == received
            and head[0] - now <= on_hand
        ):
            run += head[3]
    if run > body:
        run = body
    if run < 2:
        return 0
    window = space if out_link is None else out_link.sendable_span(now)
    if run > window:
        run = window
    return run if run >= 2 else 0


def _up_port_credits(
    out_links: List[Optional[Link]], sim: Simulator, port: int
) -> int:
    """Credits the adaptive up-port policy sees on ``port``: what the
    sender holds at the start of this cycle on the one-flit-per-cycle
    timeline.  A committed span took the credits of its later members up
    front (the link's own counter may even be negative meanwhile), so
    the slots it still holds from this cycle on are added back."""
    link = out_links[port]
    if link is None:
        return -1
    now = sim.now
    return link.credits(now) + max(0, link._last_send_cycle - now + 1)


class SwitchBase(Component):
    """Ports, links, worm arrival, routing plumbing and the tick skeleton
    common to both architectures."""

    #: the architecture's :class:`Ingress` subclass
    ingress_type: Type[Ingress] = Ingress

    def __init__(
        self,
        name: str,
        table: SwitchRoutingTable,
        num_ports: int,
        settings: SwitchSettings,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
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
        #: per-input FIFO of accepted worms (`ingress_type`), oldest first
        self._inflow: List[Deque[Any]] = [deque() for _ in range(num_ports)]
        # port-activity masks (see repro.switches.ports), kept at the
        # point of state change: bit p mirrors `_inflow[p]` non-empty /
        # a branch queued for output p / output p owned by a branch.
        # They gate the phases and the re-arm, and the phases iterate them
        self._ingress_occupied = 0
        self._egress_wanted = 0
        self._egress_busy = 0
        # bit p: the front worm of `_inflow[p]` has a complete header and
        # awaits routing or admission; set on header completion and when
        # a pop exposes such a worm, cleared by the routing decision
        self._route_pending = 0
        # set whenever a tick changes what the next cycle can do
        # (routing decision, grant, write, send — not the taking of a
        # record, whose consequences are dated); a blocked tick that
        # leaves it False may sleep instead of re-arming — see tick()
        self._stirred = False
        #: per-input ``(receive_span, span queue)`` bindings, captured on
        #: the first receive (wiring happens after construction) and
        #: dropped by `connect_in`, so an entry point rebound on the link
        #: instance before the first tick — ``SpanProfiler``, the
        #: ledger's ``SimProbe`` — is the one called
        self._rx: Optional[List[Optional[_RxPort]]] = None
        # observability: counters shared by name across the network,
        # registered only when a registry is given; `_obs` keeps the hot
        # path to a single boolean test, and an unguarded call raises
        self._obs = metrics is not None
        if metrics is not None:
            self._c_forwarded = metrics.counter("switch.flits_forwarded")
            self._c_blocked = metrics.counter("switch.blocked_cycles")
        # the blocked cycles a sleeping switch has yet to count: the
        # un-stirred tick at `_blocked_at` bumped the counter
        # `_blocked_rate` times and every cycle slept since would have
        # repeated it (see `settle_blocked`)
        self._blocked_rate = 0
        self._blocked_at = 0

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
        in ``_rx_pending``, so a woken switch drains only the in-links
        that hold flits.
        """
        if self.in_links[port] is not None:
            raise ProtocolError(f"{self.name}: input port {port} already wired")
        self.in_links[port] = link
        link.set_credits(self.input_credit_depth(port))
        link.wake_on_arrival(self, port)
        self._rx = None

    def connect_out(self, port: int, link: Link) -> None:
        """Wire an outgoing link and register this switch as its credit
        waker (once the link has refused it a credit, the next one to
        mature schedules a tick)."""
        if self.out_links[port] is not None:
            raise ProtocolError(f"{self.name}: output port {port} already wired")
        self.out_links[port] = link
        link.wake_on_credit(self)

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self._stirred = False
        if self._blocked_rate:
            self.settle_blocked(now)
            self._blocked_rate = 0
        if self._obs:
            blocked = self._c_blocked.value
        self._receive(now)
        self._phases(now)
        # Re-arm: a worm anywhere inside the switch — in an input FIFO,
        # queued for an output or owning one — is covered by one of the
        # three masks and needs the next cycle too.  A fully idle switch
        # is woken again by its in-links' arrival hooks.
        #
        # Blocked-sleep: a non-empty switch whose tick moved *nothing*
        # can only be unblocked by an arrival (in-link hook), a maturing
        # credit (out-link hook), its own routing delay expiring (exact
        # wake computed by `_blocked_wake`), or buffer space freed by its
        # own reads — which are sends, hence stirring.  So an un-stirred
        # tick may skip the re-arm entirely: every cycle until the next
        # tick would repeat this one, blocked-cycle counts included,
        # which is what `settle_blocked` adds when the sleep ends.
        #
        # Taking a record is not a stir.  The phases of this very tick
        # saw the new supply; what its later members allow a later cycle
        # to do is dated.  A header they complete starts a routing delay
        # whose expiry `_blocked_wake` computes.  A mover they feed is
        # either short of a credit or an output — a hook or a stirring
        # tail ends that, and its blocked count per cycle is the same
        # from the cycle its next flit landed on — or it has caught up
        # with the landings, and then it moved the flit that landed this
        # cycle in this tick (stirred: re-arm) or is inside a run that
        # took them all (the run's own wake).  And a record whose head
        # is still in flight was sent by a call of its own, whose hook
        # fires at that head.
        #
        # Committed-sleep: a stirred switch whose every worm is inside a
        # committed run, or waits for something that comes with a wake
        # of its own (see `_inside_runs`), has as little to do before
        # then as an un-stirred one — and whatever it counted blocked
        # this tick it would count again every cycle until then.
        if self._ingress_occupied or self._egress_busy or self._egress_wanted:
            if self._stirred and not self._inside_runs(now):
                self.wake_at(now + 1)
            else:
                if self._obs:
                    self._blocked_rate = self._c_blocked.value - blocked
                    self._blocked_at = now
                wake = self._blocked_wake(now)
                if wake is not None:
                    self.wake_at(wake)

    def settle_blocked(self, now: int) -> None:
        """Count the blocked cycles slept through before cycle ``now``.

        Called by the tick that ends a blocked sleep and by
        :func:`~repro.network.simulation.run_workload` on its way out,
        for the switches still asleep when the counters are read — both
        only in an observed run (`_blocked_rate` stays 0 in any other).
        """
        self._c_blocked.inc(self._blocked_rate * (now - 1 - self._blocked_at))
        self._blocked_at = now - 1

    def _phases(self, now: int) -> None:
        """Everything an architecture does in a cycle after the receive:
        route, buffer, arbitrate, send — each phase gated by its mask."""
        raise NotImplementedError

    def _blocked_wake(self, now: int) -> Optional[int]:
        """Earliest routing-delay expiry among the route-pending worms.

        The only *time*-driven transition a sleeping switch could miss:
        every other unblocking event fires a link wake hook.  A pending
        worm whose delay has already run is waiting for something else
        (admission), which only a stirring event can change.
        """
        delay = self.settings.routing_delay
        best: Optional[int] = None
        inflows = self._inflow
        for port in PORTS_OF[self._route_pending]:
            cycle = inflows[port][0].header_done_cycle + delay
            if cycle > now and (best is None or cycle < best):
                best = cycle
        return best

    def _inside_runs(self, now: int) -> bool:
        """True when no worm in the switch can move at ``now + 1`` but by
        a wake already arranged: each is inside a committed run that
        extends past ``now`` (the run's own wake), was refused a credit
        in this tick (the out-link's hook), or has had every flit it was
        handed (the hook of the send that brings the next).  Only an
        architecture that commits runs can be."""
        return False

    # -- worm arrival: absorb link arrivals into the input FIFOs ---------
    def _receive(self, now: int) -> None:
        """Take every span record whose head has landed, whole, visiting
        only rx-pending ports."""
        if not self._rx_pending:
            return
        rx = self._rx
        if rx is None:
            rx = self._rx = [
                None if link is None else (link.receive_span, link._in_flight)
                for link in self.in_links
            ]
        for port in PORTS_OF[self._rx_pending]:
            take, queue = rx[port]  # type: ignore[misc]
            while queue._flits:
                landed = queue.head_arrival()
                if landed > now:
                    # a record still in flight keeps the bit: the send
                    # that queued it wakes the switch at its head
                    break
                worm, start, count = take(now)
                self._accept_span(port, worm, start, count, landed)
            else:
                self._rx_pending &= ~(1 << port)

    def _accept_span(
        self, port: int, worm: Worm, start: int, count: int, landed: int
    ) -> None:
        """``count`` flits of ``worm`` from ``start``, the first of which
        landed at cycle ``landed`` and the rest of which land one per
        cycle after it, join the worm arriving at ``port`` — as if
        accepted one per call, each on the cycle it lands."""
        inflow = self._inflow[port]
        ingress = inflow[-1] if inflow else None
        if ingress is None or ingress.received == ingress.worm.size_flits:
            if start != 0:
                raise ProtocolError(
                    f"{self.name}.in{port}: body flit "
                    f"{flit_repr(worm, start)} without head"
                )
            ingress = self.ingress_type(worm)
            inflow.append(ingress)
            self._ingress_occupied |= 1 << port
        if worm is not ingress.worm or start != ingress.received:
            raise ProtocolError(
                f"{self.name}.in{port}: out-of-order flit "
                f"{flit_repr(worm, start)} "
                f"(expected index {ingress.received} of {ingress.worm!r})"
            )
        ingress.received = start + count
        ingress.last_landing = landed + count - 1
        # header completion is stamped at the cycle the completing flit
        # lands, which is when a switch that takes one flit per cycle
        # accepts it — this one takes it with its record's head, or
        # later if it slept through a committed run, and the routing
        # delay must start neither early nor late for that
        header = worm.header_flits
        if start < header <= start + count:
            ingress.header_done_cycle = landed + header - 1 - start
            if inflow[0] is ingress:
                self._route_pending |= 1 << port
            self._header_complete(ingress)
        if self.tracer is not None:
            # one record per span: member j landed at cycle `landed + j`
            self.tracer.emit(
                landed, self.name, "flit_in",
                port=port, flit=flit_repr(worm, start), count=count,
            )

    def _header_complete(self, ingress: Ingress) -> None:
        """Hook, called once per worm by the accept that completes its
        header, for an architecture that tracks more than the cycle."""

    def _pop_front(self, port: int) -> None:
        """The FIFO-front worm has left input ``port`` entirely: expose
        the worm behind it, if any, to routing."""
        inflow = self._inflow[port]
        inflow.popleft()
        if not inflow:
            self._ingress_occupied &= ~(1 << port)
        elif inflow[0].header_done_cycle is not None:
            self._route_pending |= 1 << port

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        # the RANDOM policy's stream is made at its first draw: streams
        # are keyed by name, so creation order cannot change a value,
        # and a switch that never picks an up-port — the top stage, any
        # DETERMINISTIC or ADAPTIVE network — never seeds a generator.
        # Neither argument holds the switch itself, so the selector is
        # no reference cycle
        self._up_selector = make_up_selector(
            self.settings.up_port_policy,
            rng=partial(sim.rng.stream, f"switch.{self.name}.uproute"),
            credit_view=partial(_up_port_credits, self.out_links, sim),
        )

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
