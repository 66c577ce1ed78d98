"""Host network interface: flit-level injection and ejection.

The NI injects queued worms at one flit per cycle (subject to link
credits) and sinks arriving flits at full rate, handing completed
packets to the host node.  Its receive buffer is modelled as ample:
ejected flits free their credit immediately, so the network is never
back-pressured by a host that is merely receiving — matching the paper's
assumption that reception bandwidth at the destination NI is not the
bottleneck.

Flits move as spans, never as objects: injection stages up to
``min(credit window, remaining)`` flits of the head worm in one
:meth:`~repro.switches.link.Link.send_span` call (wire-identical to the
same flits sent one per cycle; the window of
:meth:`~repro.switches.link.Link.sendable_span` counts queued credit
returns from the cycle they mature), and ejection drains
:meth:`~repro.switches.link.Link.receive_span` spans, returning the
freed credits in one batch and waking itself for span members still in
flight.  :class:`repro.reference.ReferenceHostInterface` is the
one-``Flit``-per-tick engine the differential suites hold this one
bit-identical to.

Staging a whole span up front means the head worm leaves the injection
queue *at the staging cycle* rather than at the tail's nominal send
cycle.  Everything that observes injection state —
:meth:`HostNode.idle`, :meth:`Network.quiescent`, the
``ni.injection_backlog`` telemetry gauge — must still see the
one-flit-per-cycle timeline, so :attr:`_tx_end` records the staged
span's last nominal send slot and :meth:`idle` /
:attr:`injection_backlog` count the worm as busy through that cycle.
Events and ``run_until`` predicates run before ticks, so a per-flit pop
(inside the tick at the tail-send cycle ``t_end``) becomes visible to
them at ``t_end + 1`` — exactly when ``now > _tx_end`` first holds; the
gauge is read by probes, which run after the ticks and see it at
``t_end`` already.

Ejection commits the same way.  The NI is a sink: every flit is taken
and its credit returned on the cycle it lands, so once a span record of
two or more flits is in the link and continues the worm being
reassembled, everything about it is decided.  :meth:`_eject_spans` hands
the record's slots back as one
:meth:`~repro.switches.link.Link.return_credit_ramp` dated by landing
cycle, sleeps to the last member's landing and absorbs the record there
in one piece — so a delivery still fires on the cycle its tail lands.
(That certainty is also why the ejection link's sender need not wait
for credits: see "sink" in :mod:`repro.switches.link`.)  Observers see
the same timeline as for injection: :attr:`flits_ejected` counts a
member that landed before the current cycle as ejected, absorbed or
not, and :meth:`idle` sees the worm in reassembly throughout.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ProtocolError
from repro.flits.packed import flit_repr
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry
from repro.sim.component import Component
from repro.sim.trace import Tracer
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
        tracer: Optional[Tracer] = None,
        rx_depth: int = RX_DEPTH,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(f"ni{host_id}")
        if rx_depth < 1:
            raise ProtocolError("rx_depth must be at least 1")
        self.host_id = host_id
        self.rx_depth = rx_depth
        self.tracer = tracer
        # network-wide NI totals, shared by name across all interfaces
        # and registered only when a registry is given: the
        # uninstrumented path pays one boolean test per site, and a site
        # that skips it raises
        self._obs = metrics is not None
        if metrics is not None:
            self._c_injected = metrics.counter("ni.flits_injected")
            self._c_ejected = metrics.counter("ni.flits_ejected")
            self._c_blocked = metrics.counter("ni.blocked_cycles")
        #: cycle of the tick that found injection blocked and went to
        #: sleep on it, -1 otherwise (always, unobserved): every cycle
        #: slept since is a blocked one still to be counted (see
        #: `settle_blocked`)
        self._blocked_at = -1
        self.out_link: Optional[Link] = None
        self.in_link: Optional[Link] = None
        self._inject: Deque[Worm] = deque()
        self._inject_cursor = 0
        #: last nominal send-slot cycle of the most recently staged span
        self._tx_end = -1
        self._rx_worm: Optional[Worm] = None
        self._rx_count = 0
        #: landing cycle of the last member of the committed head record
        #: of the ejection link: its credits are already on their way
        #: back and it is absorbed whole at that cycle
        self._rx_end = -1
        self._on_delivery: Optional[DeliveryCallback] = None
        #: flits ever injected (statistics)
        self.flits_injected = 0
        #: flits absorbed so far; `flits_ejected` is the timeline view
        self._ejected = 0

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
        link.set_credits(self.rx_depth, sink=True)
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
        """Worms queued or with send slots still nominally occupied, as
        a probe sees it: after the current cycle's ticks, so a worm
        whose tail leaves this cycle is gone."""
        backlog = len(self._inject)
        if self._sim is not None and self._sim.now < self._tx_end and (
            self._inject_cursor == 0
        ):
            backlog += 1
        return backlog

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        if self._blocked_at >= 0:
            self.settle_blocked(now)
            self._blocked_at = -1
        self._eject_spans(now)
        sent = self._inject_span(now)
        # the staged span occupies send slots now .. now+sent-1, so the
        # next send opportunity is now+sent — wake there unconditionally:
        # a worm enqueued mid-span must start at exactly the cycle the
        # one-flit-per-tick reference would reach it (when the queue
        # stays empty the extra tick is a no-op and changes nothing)
        if sent:
            self.wake_at(now + sent)
        elif self._obs and self._inject and now > self._tx_end:
            # blocked (during a staged span the one-flit-per-cycle
            # reference is still sending; the wake above comes back at
            # its end).  The out-link's credit hook ends the sleep
            self._c_blocked.inc()
            self._blocked_at = now

    def settle_blocked(self, now: int) -> None:
        """Count the blocked cycles slept through before cycle ``now``.

        Called by the tick that ends a blocked sleep and by
        :func:`~repro.network.simulation.run_workload` on its way out,
        for the NIs still asleep when the counters are read.
        """
        if self._blocked_at >= 0:
            self._c_blocked.inc(now - 1 - self._blocked_at)
            self._blocked_at = now - 1

    def _eject_spans(self, now: int) -> None:
        # the ejection link sets _rx_pending on every send (see
        # Link.wake_on_arrival): clear means nothing is in flight.
        # Before `_rx_end` the head record is committed and not yet due
        # (a wake for something else — injection, a send merged into the
        # record — finds nothing to do here)
        if not self._rx_pending or now < self._rx_end:
            return
        link = self.in_link
        assert link is not None
        queue = link._in_flight
        # a committed record's credits went back as a ramp
        credited = now == self._rx_end
        # a sink acts on each flit the cycle it lands (a delivery fires
        # on its tail's): of a record it takes what has landed, no more,
        # and it asks only once the head has landed
        while queue._flits:
            landed = queue.head_arrival()
            if landed > now:
                break
            span = link.receive_span(now, now - landed + 1)
            worm, start, count = span  # type: ignore[misc]
            if credited:
                credited = False
            else:
                link.return_credit(now, count)
            self._absorb_span(worm, start, count, now)
        pending = queue._flits
        if not pending:
            self._rx_pending = 0
            return
        # a span fires the arrival hook once, at its first member: the
        # later members are ours to come back for — all at once when
        # the head record continues the worm being reassembled
        if pending >= 2:
            arrival, worm, start, count = queue.head()  # type: ignore[misc]
            if (
                count >= 2
                and worm is self._rx_worm
                and start == self._rx_count
            ):
                link.return_credit_ramp(arrival, count)
                self._rx_end = arrival + count - 1
                self.wake_at(self._rx_end)
                return
        if self._wake_marker != now + 1:
            # (already due next cycle, e.g. by a single send's own
            # hook: ask again then)
            self.wake_at(queue.head_arrival())

    def _absorb_span(self, worm: Worm, start: int, count: int, now: int) -> None:
        if self._rx_worm is None:
            if start != 0:
                raise ProtocolError(
                    f"{self.name}: body flit {flit_repr(worm, start)} "
                    "without head"
                )
            if not worm.destinations.is_singleton() or (
                self.host_id not in worm.destinations
            ):
                raise ProtocolError(
                    f"{self.name}: received worm addressed to "
                    f"{worm.destinations!r}"
                )
            self._rx_worm = worm
            self._rx_count = 0
        if worm is not self._rx_worm or start != self._rx_count:
            raise ProtocolError(
                f"{self.name}: out-of-order flit {flit_repr(worm, start)} "
                f"(expected index {self._rx_count})"
            )
        self._rx_count = start + count
        self._ejected += count
        if self._obs:
            self._c_ejected.inc(count)
        self.sim.progress += count  # note_progress(), once per member flit
        if self._rx_count == worm.size_flits:
            self._rx_worm = None
            if self.tracer is not None:
                self.tracer.emit(
                    now, self.name, "packet_delivered",
                    packet=worm.packet.packet_id,
                )
            if self._on_delivery is not None:
                self._on_delivery(worm, now)

    def _inject_span(self, now: int) -> int:
        """Stage the next span out; returns the flits staged (0: blocked)."""
        link = self.out_link
        if link is None or not self._inject:
            return 0
        worm = self._inject[0]
        window = link.sendable_span(now, worm)
        if window <= 0:
            return 0
        cursor = self._inject_cursor
        count = worm.size_flits - cursor
        if count > window:
            count = window
        if cursor == 0 and worm.packet.injected_cycle is None:
            worm.packet.injected_cycle = now
            if self.tracer is not None:
                self.tracer.emit(
                    now, self.name, "inject_start",
                    packet=worm.packet.packet_id,
                    flits=worm.size_flits,
                    created=worm.packet.message.created_cycle,
                )
        link.send_span(now, worm, cursor, count)
        cursor += count
        self.flits_injected += count
        if self._obs:
            self._c_injected.inc(count)
        self.sim.progress += count  # note_progress(), once per member flit
        self._tx_end = now + count - 1
        if cursor == worm.size_flits:
            self._inject.popleft()
            self._inject_cursor = 0
        else:
            self._inject_cursor = cursor
        return count

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _landed_unabsorbed(self) -> int:
        """Members of a committed record that landed before the current
        cycle — ejected already on the one-flit-per-cycle timeline, as
        events and ``run_until`` predicates (which run before ticks)
        must see it."""
        if not self._rx_pending or self._sim is None:
            return 0
        assert self.in_link is not None
        return self.in_link._in_flight.arrived(self._sim.now - 1)

    @property
    def flits_ejected(self) -> int:
        """Flits ever ejected (statistics)."""
        return self._ejected + self._landed_unabsorbed()

    def idle(self) -> bool:
        """True when nothing is being injected, staged, or reassembled
        (a committed record continues a worm, so `_rx_worm` covers it
        until it is absorbed)."""
        return (
            not self._inject
            and self._rx_worm is None
            and (self._sim is None or self._sim.now > self._tx_end)
        )
