"""Unidirectional pipelined links with credit-based flow control.

A link carries at most one flit per cycle and delivers it ``latency``
cycles later; credits flow back with ``credit_latency``.  The receiver
declares its buffer depth once (:meth:`set_credits`); the sender may only
send while it holds a credit, so a full receiver exerts backpressure and
a worm blocks in place — the essential wormhole behaviour.

The link is passive (not a :class:`~repro.sim.component.Component`): the
sender asks :meth:`can_send`/:meth:`send` during its tick and the receiver
takes what the link holds for it during its own, with the pipeline
queues keyed by arrival cycle.  Because latency is at least one cycle,
behaviour is independent of which side ticks first.

In-flight flits are stored packed — as int spans in a preallocated
:class:`~repro.flits.packed.SpanQueue`, never as per-flit objects.  Both
data planes share this storage:

* the per-flit reference (:mod:`repro.reference`; bare links in unit
  tests) sends one :class:`~repro.flits.flit.Flit` per cycle
  (:meth:`send`) and materialises flit objects on :meth:`receive`;
* production sends flit *coordinates* (:meth:`send_packed`) or a
  whole contiguous span in one call (:meth:`send_span`, which reserves
  one send slot and one credit per member flit, exactly as the same
  flits sent one per cycle would) and receives *records*:
  :attr:`receive_span` hands the oldest span record over whole, once
  its head has landed.

The wire protocol is identical either way: a span sent at cycle *t*
occupies send slots *t .. t+count-1* and delivers one flit per cycle —
so credits, arrival cycles and every downstream observable match the
one-flit-per-tick reference bit for bit (see
``tests/sim/test_packed_differential.py``).

**The record contract.**  Sends that continue one another — same worm,
next index, next cycle — share one record while it is queued, and every
member's landing cycle is known when the first is sent.  So an arrival
is a record, not a cycle: :attr:`receive_span` returns ``(worm, start,
count)`` for the whole oldest record (no credit cap: the sender already
paid a credit per member) as soon as its *head* has landed, never
before, and the receiver dates the members itself — member ``j`` lands
at ``head + j``.  A receiver that must not act on a flit before it is
there (every receiver) keeps that date: the switches as
``Ingress.last_landing`` (:mod:`repro.switches.base`), while the NI,
which acts on each flit the cycle it lands, caps the call at what has
landed.  Records land in order and a record is only handed over once
its head is there, so everything handed over earlier has landed by
then, and the link needs one scalar — the queue's ``landing`` — to keep
reporting members handed over ahead of their cycle as *flying*
(:meth:`in_flight`, :meth:`accounted_credits`) until it comes.

For the active-set kernel the link wakes the component at either end:
the receiving component registers itself with :meth:`wake_on_arrival`
(wired by ``connect_in``) so a send wakes it at the delivery cycle, and
the sending component with :meth:`wake_on_credit` (wired by
``connect_out``).  The link holds the component itself, not a callback,
so the send and credit paths test its next-cycle wake marker inline and
skip the wake call when it is already scheduled — the overwhelmingly
common case in a busy network.  The credit wake is *on demand*: a
sender that never runs out of credits is never woken for one.  Only a
sender that :meth:`can_send` or :meth:`sendable_span` just refused for
lack of a credit is owed a wake — at the maturity of the head queued
return if one is already travelling back, else at the maturity of the
next :meth:`return_credit`.  Both wakers are optional — a bare link in a
unit test works without them.

The arrival waker also carries the receiver's *rx-pending* bit: every
send sets bit ``port`` of the component's ``_rx_pending`` mask, and a
receiver that takes by mask — the switches and NI, see
:mod:`repro.switches.ports` — clears it when this link's span queue runs
empty.  Such a receiver never polls
:meth:`pending_arrival`; it calls :attr:`receive_span` on exactly the
in-links whose bit is set.  ``receive_span`` is an instance attribute,
and those receivers look it up on the link instance no earlier than
their first tick, so a profiler may rebind it (and the send entry
points) per link before the run starts.

The arrival wake fires once per :meth:`send` and once per
:meth:`send_span` — at the send's *first* arrival cycle, not once per
member flit, and whether or not the send joined a record already
queued: an arrival is an event once per send.  That is the only wake a
landing ever causes.  A switch that took a record whole needs no other:
what the later members make possible is already dated in the switch
(see ``SwitchBase.tick``).  The NI, which takes only what has landed,
wakes itself for the rest of the head record.

A receiver that knows it will free one slot per cycle for the next
``count`` cycles — a switch that committed a run of bypass flits — hands
all of them back in one :meth:`return_credit_ramp`, each dated exactly as
the per-cycle :meth:`return_credit` would date it.  The queue of returns
is kept in maturity order, one record per ramp rather than one per
credit — per-cycle returns that continue a ramp extend its record, so a
steady stream is a single record however it was queued — and
:meth:`sendable_span` counts a queued
return from the cycle it matures, so a sender may commit a span against
credits that are still travelling back: member ``j`` leaves at
``now + j`` and needs its credit only by then.  Returns queued later can
only widen that window, so a span committed early is always a prefix of
what the one-flit-per-cycle reference sends.

A *sink* is a receiver that frees every slot on the very cycle its flit
lands, whatever else is going on — the host NI
(:meth:`set_credits` with ``sink=True``).  A flit sent at ``t`` then has
its credit back at ``t + latency + credit_latency``, so a sender moving
one flit per cycle never has more than ``latency + credit_latency - 1``
credits outstanding when it asks for the next.  With a depth of at least
``latency + credit_latency`` no member of any span can therefore lack a
credit on its cycle, and :meth:`sendable_span` does not cap the span by
the credits on hand: the returns that will pay for the later members
are certain, merely not queued yet.  Below that depth the sink does
throttle, and the finite window above applies unchanged.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, List, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.flits.flit import Flit
from repro.flits.packed import SpanQueue
from repro.flits.worm import Worm
from repro.sim.component import Component


class Link:
    """One direction of a cable between two components."""

    def __init__(
        self,
        name: str,
        latency: int = 1,
        credit_latency: Optional[int] = None,
    ) -> None:
        if latency < 1:
            raise ConfigurationError("link latency must be at least 1 cycle")
        self.name = name
        self.latency = latency
        self.credit_latency = credit_latency if credit_latency is not None else latency
        if self.credit_latency < 1:
            raise ConfigurationError("credit latency must be at least 1 cycle")
        in_flight = SpanQueue()
        self._in_flight = in_flight
        # receiver-side hot alias: a pure wrapper around the span store
        # that runs once (or more) per busy input port per wake —
        # binding the store's method directly saves a Python call each
        # time.  Semantics are documented on SpanQueue.take_record.
        #: pop the oldest span record whole as ``(worm, start, count)``
        #: once its head has landed (at most ``limit`` flits of it when
        #: given), ``None`` while the head is in flight — see "the
        #: record contract" in the module docstring.  The production
        #: receive: call until the head of the queue is still flying; a
        #: record is never split across worms.
        self.receive_span = in_flight.take_record
        #: credit returns in maturity order, one ``[first, count,
        #: stride]`` record per ramp: ``count`` credits, credit ``j``
        #: maturing at ``first + j * stride`` (stride 1: a slot a cycle;
        #: stride 0: ``count`` slots freed at once).  No record reaches
        #: past the start of the next, so only the head can be partly
        #: matured — the drain consumes its matured prefix in place
        self._credit_returns: Deque[List[int]] = deque()
        #: credits at the sender, net of the returns drained so far.
        #: Transiently negative while a span has borrowed against queued
        #: returns (:meth:`sendable_span`) or, toward a sink, against the
        #: returns its own members will cause; every borrowed return
        #: matures no later than the span's last reserved slot, so any
        #: check made once the slot is free again sees a non-negative
        #: count
        self._credits: Optional[int] = None
        #: the receiver is a sink deep enough never to throttle a sender
        #: (see the module docstring): spans are not capped by credits
        self._unthrottled = False
        #: the sender was refused for lack of a credit while no return
        #: was queued: the next return wakes it
        self._credit_wanted = False
        #: last cycle with a reserved send slot; a span send at cycle t
        #: reserves slots t .. t+count-1 in one call
        self._last_send_cycle = -1
        self._arrival_comp: Optional[Component] = None
        self._credit_comp: Optional[Component] = None
        #: this link's bit in the arrival component's ``_rx_pending`` mask
        self._rx_bit = 0
        #: total flits ever sent, a span counted when it is committed
        #: (:meth:`flits_sent_by` is the timeline view)
        self.flits_sent = 0

    # ------------------------------------------------------------------
    # wakers (wired once, by whoever owns each end)
    # ------------------------------------------------------------------
    def wake_on_arrival(self, component: Component, port: int = 0) -> None:
        """Register the receiving component: every send wakes it at the
        arrival cycle, so an idle receiver is ticked exactly when the
        flit becomes receivable.

        ``port`` is the receiver's input port this link feeds: every
        send also sets bit ``port`` of the component's ``_rx_pending``
        mask, so a receiver draining by mask visits only in-links that
        hold flits (it clears the bit when the span queue runs empty).
        """
        if self._arrival_comp is not None:
            raise ProtocolError(f"link {self.name}: arrival waker already set")
        self._arrival_comp = component
        self._rx_bit = 1 << port
        if self._in_flight._flits:
            component._rx_pending |= self._rx_bit

    def wake_on_credit(self, component: Component) -> None:
        """Register the sending component: woken at the cycle a credit
        matures, once per refusal for lack of one, so a credit-starved
        sender can go dormant instead of polling."""
        if self._credit_comp is not None:
            raise ProtocolError(f"link {self.name}: credit waker already set")
        self._credit_comp = component

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def set_credits(self, depth: int, sink: bool = False) -> None:
        """Declare the receiver's buffer depth; must be called exactly once.

        ``sink`` declares a receiver that returns each credit on the
        cycle its flit lands, unconditionally (see the module docstring).
        """
        if self._credits is not None:
            raise ProtocolError(f"link {self.name}: credits already set")
        if depth < 1:
            raise ConfigurationError("credit depth must be at least 1")
        self._credits = depth
        self._unthrottled = (
            sink and depth >= self.latency + self.credit_latency
        )

    def pending_arrival(self, now: int) -> bool:
        """True when :attr:`receive_span` would hand a record over at
        cycle ``now`` (the emptiness test before a receive).  Only
        pollers ask — the per-flit reference and bare links in tests;
        production drains by the ``_rx_pending`` mask — so, unlike
        :attr:`receive_span`, this is no per-instance alias: a link
        that is never polled does not pay for one."""
        return self._in_flight.has_arrived(now)

    def receive(self, now: int) -> List[Flit]:
        """Pop every flit that has arrived by cycle ``now``, in order.

        The per-flit drain: materialises one :class:`Flit` per
        arrived member of the packed span records.
        """
        in_flight = self._in_flight
        out: List[Flit] = []
        while True:
            span = in_flight.take(now)
            if span is None:
                return out
            worm, start, taken = span
            for index in range(start, start + taken):
                out.append(Flit(worm, index))

    def return_credit(self, now: int, count: int = 1) -> None:
        """Receiver freed ``count`` buffer slots; sender sees them later."""
        if count < 1:
            raise ValueError("count must be positive")
        mature = now + self.credit_latency
        self._queue_return(mature, count, 1 if count == 1 else 0)
        if self._credit_wanted:
            self._credit_wanted = False
            self._wake_sender(mature)

    def return_credit_ramp(self, now: int, count: int) -> None:
        """Receiver frees one slot per cycle for ``count`` cycles from
        ``now`` — a committed run of flits leaving its buffer.

        Queue-identical to :meth:`return_credit` called at ``now``,
        ``now + 1``, … ``now + count - 1``: return ``j`` matures at
        ``now + j + credit_latency``.
        """
        if count < 1:
            raise ValueError("count must be positive")
        first = now + self.credit_latency
        self._queue_return(first, count, 1)
        if self._credit_wanted:
            self._credit_wanted = False
            self._wake_sender(first)

    def _queue_return(self, first: int, count: int, stride: int) -> None:
        """Queue ``count`` returns, the j-th maturing at ``first + j *
        stride``: onto the newest record when they continue its ramp,
        else as a record of their own."""
        returns = self._credit_returns
        if returns:
            last = returns[-1]
            end = last[0] + (last[1] - 1) * last[2]
            if end > first:
                self._insert_return(first, count, stride)
                return
            if stride and last[2] and end + 1 == first:
                last[1] += count
                return
        returns.append([first, count, stride])

    def _insert_return(self, first: int, count: int, stride: int) -> None:
        """Queue returns that mature before some already queued (a ramp
        reaches past them): the drain and the span window rely on
        maturity order, so the records from there on are re-cut."""
        returns = self._credit_returns
        matures = [first + j * stride for j in range(count)]
        while returns:
            last = returns[-1]
            if last[0] + (last[1] - 1) * last[2] <= first:
                break
            returns.pop()
            matures.extend(last[0] + j * last[2] for j in range(last[1]))
        matures.sort()
        for mature in matures:
            if returns:
                last = returns[-1]
                end = last[0] + (last[1] - 1) * last[2]
                if last[2] and end + 1 == mature:
                    last[1] += 1
                    continue
                if end == mature and (last[1] == 1 or not last[2]):
                    last[1] += 1
                    last[2] = 0
                    continue
            returns.append([mature, 1, 1])

    def _mature(self, now: int) -> int:
        """Move every return matured by ``now`` into the sender's
        counter; returns the counter."""
        credits: int = self._credits  # type: ignore[assignment]
        returns = self._credit_returns
        while returns:
            head = returns[0]
            first = head[0]
            if first > now:
                break
            count = head[1]
            due = now - first + 1 if head[2] else count
            if due >= count:
                credits += count
                returns.popleft()
            else:
                credits += due
                head[0] = first + due
                head[1] = count - due
                break
        self._credits = credits
        return credits

    def _wake_sender(self, cycle: int) -> None:
        comp = self._credit_comp
        if comp is not None:
            # inline wake dedup: the marker equals `cycle` only when the
            # component is already in the kernel's next-cycle bucket for
            # exactly that cycle (markers never run ahead of the bucket)
            if comp._wake_marker != cycle:
                comp.wake_at(cycle)

    def _wake_for_credit(self) -> None:
        """The sender was just refused for lack of a credit: wake it when
        the next one matures — the head queued return, else whichever
        return is queued first."""
        returns = self._credit_returns
        if returns:
            self._wake_sender(returns[0][0])
        else:
            self._credit_wanted = True

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def credits(self, now: int) -> int:
        """Credits usable by the sender at cycle ``now``."""
        credits = self._credits
        if credits is None:
            raise ProtocolError(f"link {self.name}: receiver never set credits")
        returns = self._credit_returns
        if returns and returns[0][0] <= now:  # nothing to drain when idle
            return self._mature(now)
        return credits

    def can_send(self, now: int) -> bool:
        """True when a credit is available and this cycle's slot is free."""
        if self._last_send_cycle >= now:
            return False
        # inlined credits(now): this runs once per busy output per cycle
        credits = self._credits
        if credits is None:
            raise ProtocolError(f"link {self.name}: receiver never set credits")
        returns = self._credit_returns
        if returns and returns[0][0] <= now:
            credits = self._mature(now)
        if credits > 0:
            return True
        self._wake_for_credit()
        return False

    def sendable_span(self, now: int) -> int:
        """Largest span :meth:`send_span` would accept at cycle ``now``.

        Member ``j`` leaves at ``now + j`` and needs its credit only by
        then: the credits on hand pay for the first members, and each
        queued return extends the window if it matures no later than
        the member it pays for.  Toward a sink that never throttles
        there is no window: every member's credit is certain.
        """
        if self._last_send_cycle >= now:
            return 0
        window = self.credits(now)
        if window <= 0:
            self._wake_for_credit()
            return 0
        if self._unthrottled:
            return sys.maxsize
        # a ramp's credit j matures at first + j and pays for member
        # window + j: all of it qualifies, or none
        for first, count, _ in self._credit_returns:
            if first > now + window:
                break
            window += count
        return window

    def send(self, now: int, flit: Flit) -> None:
        """Transmit one flit; requires :meth:`can_send`."""
        self.send_packed(now, flit.worm, flit.index)

    def send_packed(self, now: int, worm: Worm, index: int) -> None:
        """Transmit flit ``(worm, index)`` without materialising it."""
        if self._last_send_cycle >= now:
            raise ProtocolError(
                f"link {self.name}: second send in cycle {now}"
            )
        # inlined credits(now): this is the hottest call in the simulator
        credits = self._credits
        if credits is None:
            raise ProtocolError(f"link {self.name}: receiver never set credits")
        returns = self._credit_returns
        if returns and returns[0][0] <= now:
            credits = self._mature(now)
        if credits <= 0:
            raise ProtocolError(
                f"link {self.name}: send without credit in cycle {now}"
            )
        self._credits = credits - 1
        self._last_send_cycle = now
        arrival = now + self.latency
        self._in_flight.push_span(arrival, worm, index, 1)
        self.flits_sent += 1
        comp = self._arrival_comp
        if comp is not None:
            comp._rx_pending |= self._rx_bit
            if comp._wake_marker != arrival:
                comp.wake_at(arrival)

    def send_granted(self, now: int, worm: Worm, index: int) -> None:
        """Transmit flit ``(worm, index)`` after a :meth:`can_send` check.

        The switches test :meth:`can_send` while collecting grant
        candidates and send to each winner in the same cycle; since
        ``can_send`` already drained matured credit returns and nothing
        else can touch this link's credits within the tick, re-draining
        here would be pure overhead.  Caller contract: ``can_send(now)``
        returned True earlier in this same cycle and no other send has
        happened since — exactly what the scan-then-grant phases ensure.
        """
        self._credits = self._credits - 1  # type: ignore[operator]
        self._last_send_cycle = now
        arrival = now + self.latency
        self._in_flight.push_span(arrival, worm, index, 1)
        self.flits_sent += 1
        comp = self._arrival_comp
        if comp is not None:
            comp._rx_pending |= self._rx_bit
            if comp._wake_marker != arrival:
                comp.wake_at(arrival)

    def send_span(self, now: int, worm: Worm, start: int, count: int) -> None:
        """Transmit ``count`` flits of ``worm`` from ``start`` in one call.

        Wire-identical to ``count`` single sends on consecutive cycles:
        one send slot and one credit per member flit (all reserved now)
        and member ``j`` arriving at ``now + latency + j``.  The arrival
        wake fires once, at the first arrival cycle (see the module
        docstring).
        Requires ``count <= sendable_span(now)``.
        """
        if count < 1:
            raise ValueError("span count must be positive")
        if self._last_send_cycle >= now:
            raise ProtocolError(
                f"link {self.name}: second send in cycle {now}"
            )
        window = self.sendable_span(now)
        if window < count:
            raise ProtocolError(
                f"link {self.name}: span of {count} flits exceeds the "
                f"credit window of {window} in cycle {now}"
            )
        self._credits -= count  # type: ignore[operator]
        self._last_send_cycle = now + count - 1
        arrival = now + self.latency
        self._in_flight.push_span(arrival, worm, start, count)
        self.flits_sent += count
        comp = self._arrival_comp
        if comp is not None:
            comp._rx_pending |= self._rx_bit
            if comp._wake_marker != arrival:
                comp.wake_at(arrival)

    # ------------------------------------------------------------------
    # introspection (tests and invariant checks)
    # ------------------------------------------------------------------
    def in_flight(self, now: Optional[int] = None) -> int:
        """Flits traversing the pipeline.

        Without ``now``: the flits the receiver has yet to take, landed
        or not.  Given ``now``: the flits that have not landed by the
        end of that cycle on the one-flit-per-cycle timeline — a member
        of a record handed over ahead of its cycle is still flying
        until it comes.
        """
        if now is None:
            return len(self._in_flight)
        return self._in_flight.flying(now)

    def credits_in_return(self, now: Optional[int] = None) -> int:
        """Credits travelling back to the sender.

        Without ``now``: every queued return.  A committed run queues its
        returns ahead of time (:meth:`return_credit_ramp`); given ``now``
        a return counts only from the cycle its flit leaves the
        receiver's buffer (``maturity - credit_latency``) — the
        one-flit-per-cycle timeline.
        """
        if now is None:
            return sum(count for _, count, _ in self._credit_returns)
        horizon = now + self.credit_latency
        total = 0
        for first, count, stride in self._credit_returns:
            if first > horizon:
                break
            total += min(count, horizon - first + 1) if stride else count
        return total

    def return_maturities(self) -> List[int]:
        """Maturity cycle of every queued credit return, in order."""
        return [
            first + j * stride
            for first, count, stride in self._credit_returns
            for j in range(count)
        ]

    def flits_sent_by(self, now: int) -> int:
        """Flits sent by the end of cycle ``now`` (the current cycle or
        a later one) on the one-flit-per-cycle timeline:
        :attr:`flits_sent` counts a span whole when it is committed, its
        last member leaves at ``_last_send_cycle``.  What utilisation is
        computed from."""
        return self.flits_sent - max(0, self._last_send_cycle - now)

    def accounted_credits(self, now: Optional[int] = None) -> Optional[int]:
        """Credits at the sender plus those in flight (either direction).

        Credit conservation: this value plus the flits the *receiver*
        currently holds without having returned their credits equals the
        depth declared via :meth:`set_credits`.  Tests use it to assert
        no credit is ever lost or duplicated.

        Given ``now`` the count follows the one-flit-per-cycle timeline
        as of the end of that cycle, whatever was committed or taken
        ahead of it: a flit that has landed belongs to the receiver even
        if not yet taken, one that has not is still on the wire even if
        its record was (:meth:`in_flight`), and a ramped return counts
        only once its flit has left (:meth:`credits_in_return`).  The
        sender's counter may be negative while a span has borrowed
        against queued returns; the sum is unaffected.
        """
        if self._credits is None:
            return None
        return (
            self._credits + self.in_flight(now) + self.credits_in_return(now)
        )

    def __repr__(self) -> str:
        return f"Link({self.name!r}, latency={self.latency})"
