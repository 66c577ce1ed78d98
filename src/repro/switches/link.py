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
* production sends flit *coordinates* (:meth:`send_granted`, after the
  :meth:`can_send` its arbitration asked; :meth:`send_packed` is the
  same send with the checks, and :meth:`send` goes through it) or a
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

The arrival wake fires at most once per :meth:`send` and once per
:meth:`send_span`, not once per member flit, and whether or not the
send joined a record already queued: an arrival is an event once per
send.  It is dated at the first cycle the receiver can act on the
record, which is its *first* arrival cycle but in two cases, both for
the production switches only (the NI and the per-flit reference keep
every landing wake):

* *A head behind nothing, or behind a worm dated to leave.*  For the
  send of a worm's head to a receiver that declares a routing delay
  (:meth:`wake_on_arrival`), when its record holds the whole header and
  is all the link holds, nothing can happen to the worm before its
  routing decision, nor before it is its input's front.  So if the
  receiver knows when that is (``_clear_by``: at the landing in an
  input that is clear by then, or the cycle after the dated tail
  release of the one worm ahead of it), the wake is dated at the later
  of that cycle and the cycle it can route the worm,
  ``landing + header_flits - 1 + routing_delay``.  The record waits
  landed in the link until then, or until the receiver ticks for
  something else and takes it.
* *A body inside its mover's run.*  A send that continues the worm
  whose mover at the receiver is inside a committed run (:meth:`hold`:
  a central-buffer bypass feed or writer, for a run not carrying the
  tail) and lands by that run's last cycle wakes nobody: the run's own
  wake, the cycle after, takes the record, and nothing can move the
  worm before.

Those are the only wakes a landing ever causes, and the rx-pending bit
is set all the same.  A switch that took a record whole needs no other:
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

A *drain* is a receiver that has committed to consume a worm one flit
per cycle through to its tail: each flit on the cycle it lands, or on
the cycle after the one before it if that is later, whatever else is
going on.  Toward a drain the credit return of every flit is dated the
moment the flit is sent, so the link dates it itself.  Two receivers
declare one for a worm on their in-link (:meth:`drain`), on their first
move of it: a central-buffer writer that every cycle's write
arbitration grants and no chunk take can stop — of an admitted
multidestination worm, whose space the acceptance rule owns to the
tail, or of a unicast whose input's free quota holds every chunk it
still needs — and a central-buffer bypass feed whose out-link is an
unthrottled sink (below).  From then on each send
of that worm — span or single flit — queues its members' returns as one
ramp from ``max(now + latency, next) + credit_latency``, ``next`` being
the cycle after the flit before is consumed, and the receiver returns
none of them itself (the central buffer's ``_Ingress.prepaid``); the
tail's send ends the drain.  The member sent at ``now + j`` then has
its credit back at ``now + j + lag``, with ``lag = max(latency, next -
now) + credit_latency``, and pays for the member ``lag`` places behind
it.  So when the credits on hand plus the queued returns that mature in
time cover the first ``lag`` members, every later member's credit is
certain, and :meth:`sendable_span` given that worm does not cap the
span at all.  When they do not — a FIFO shallower than the lag — the
window is the finite one above, returns dated or not.

The host NI is the drain's static case, a *sink*: it frees every slot
on the very cycle its flit lands, for every worm (:meth:`set_credits`
with ``sink=True``), so ``next`` never runs ahead of the landing and
the lag is ``latency + credit_latency``.  It returns its credits
itself, and a depth of at least that lag is all the rule needs:
:meth:`sendable_span` never caps a span toward such a sink, for any
worm.  Below that depth the sink does throttle, and the finite window
above applies unchanged.
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
        #: matured — maturing consumes its matured prefix in place
        self._credit_returns: Deque[List[int]] = deque()
        #: credits at the sender, net of the returns matured so far.
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
        #: the worm the receiver drains (see the module docstring), whose
        #: sends date their own credit returns, and the cycle after the
        #: receiver consumes the last of its flits sent so far
        self._drain: Optional[Worm] = None
        self._drain_next = 0
        #: the worm whose mover at the receiver is inside a committed run
        #: through cycle ``_held_through`` (:meth:`hold`): a send of its
        #: body landing by then wakes nobody
        self._held: Optional[Worm] = None
        self._held_through = -1
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

        A component whose ``_route_lead`` is not negative routes a worm
        that many cycles after its header lands, dates that from the
        landing whenever it takes the record, and does nothing with the
        worm before: the send of a head record wakes it at the routing
        cycle instead, or at the first cycle the input is the worm's,
        if later (see the module docstring).  Such a component
        implements ``_clear_by(port, landing)``, which returns that
        cycle, or ``None`` when it does not know it.  A receiver that
        declares a :meth:`hold` is not woken by a send of the held
        worm's body that lands inside the run.
        """
        if self._arrival_comp is not None:
            raise ProtocolError(f"link {self.name}: arrival waker already set")
        self._arrival_comp = component
        self._rx_bit = 1 << port
        if self._in_flight._flits:
            component._rx_pending |= self._rx_bit

    def _head_wake(
        self, comp: Component, worm: Worm, count: int, landing: int
    ) -> int:
        """The arrival wake of a send of ``count`` flits from a worm's
        head, landing at ``landing``: when the record holds the whole
        header and is all this link holds, the later of the receiver's
        routing cycle and the first cycle its input is clear
        (``_clear_by``), if it knows one; else the landing."""
        header = worm.header_flits
        if count >= header and self._in_flight.records == 1:
            port = self._rx_bit.bit_length() - 1
            clear = comp._clear_by(port, landing)  # type: ignore[attr-defined]
            if clear is not None:
                routed = landing + header - 1 + comp._route_lead
                return routed if routed > clear else clear
        return landing

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

    def drain(self, worm: Worm, taken: int, after: int) -> int:
        """Declare the receiver a drain for ``worm`` (see the module
        docstring).  It has been handed the first ``taken`` flits of the
        worm and consumes the last of them on cycle ``after - 1``; the
        records of the worm still queued here stay its own to return,
        and every flit sent from now on has its return dated by the
        link.  Returns the index of the first such flit —
        ``worm.size_flits``, and no drain, when the tail is already
        sent."""
        for arrival, queued, start, count in self._in_flight.spans():
            if queued is not worm:
                break
            after = max(arrival, after) + count
            taken = start + count
        if taken < worm.size_flits:
            self._drain = worm
            self._drain_next = after
        return taken

    def hold(self, worm: Worm, through: int) -> None:
        """The receiver's mover of ``worm`` committed a run, not carrying
        the tail, through cycle ``through`` and wakes itself after it: a
        later send of the worm's body landing by ``through`` wakes
        nobody (see the module docstring).  A hold is never lifted; one
        that has run out covers no send to come."""
        self._held = worm
        self._held_through = through

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
        reaches past them): maturing and the span window rely on
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

    def _prepay(self, now: int, worm: Worm, start: int, count: int) -> None:
        """Queue the returns of ``count`` flits of the drain worm sent
        from ``now``: consumed one a cycle from the later of the first's
        landing and the cycle after the flit before it."""
        first = now + self.latency
        if first < self._drain_next:
            first = self._drain_next
        self._drain_next = first + count
        if start + count == worm.size_flits:
            self._drain = None
        self._queue_return(first + self.credit_latency, count, 1)

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
        if returns and returns[0][0] <= now:  # nothing to mature when idle
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

    def sendable_span(self, now: int, worm: Optional[Worm] = None) -> int:
        """Largest span of ``worm`` :meth:`send_span` would accept at
        cycle ``now``.

        Member ``j`` leaves at ``now + j`` and needs its credit only by
        then: the credits on hand pay for the first members, and each
        queued return extends the window if it matures no later than
        the member it pays for.  Toward a sink that never throttles
        there is no window: every member's credit is certain — and
        toward a drain of ``worm`` neither, once the window covers the
        lag of the returns the members date themselves (see the module
        docstring).
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
        if worm is self._drain and worm is not None:
            lag = self._drain_next - now
            if lag < self.latency:
                lag = self.latency
            if window >= lag + self.credit_latency:
                return sys.maxsize
        return window

    def send(self, now: int, flit: Flit) -> None:
        """Transmit one flit; requires :meth:`can_send`."""
        self.send_packed(now, flit.worm, flit.index)

    def send_packed(self, now: int, worm: Worm, index: int) -> None:
        """Transmit flit ``(worm, index)`` without materialising it: the
        slot and credit checks of :meth:`can_send`, raising instead of
        refusing, then :meth:`send_granted`'s body.  That is called on
        the class, not the instance, so a profiler that rebinds both
        entry points on a link counts this send once."""
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
        Link.send_granted(self, now, worm, index)

    def send_granted(self, now: int, worm: Worm, index: int) -> None:
        """Transmit flit ``(worm, index)`` after a :meth:`can_send` check:
        the one single-flit send body.

        The switches test :meth:`can_send` while collecting grant
        candidates (or, in lock-step replication, on every branch link)
        and send to each winner in the same cycle; since ``can_send``
        already matured the credit returns due and nothing else can
        touch this link's credits within the tick, maturing again here
        would be pure overhead.  Caller contract: ``can_send(now)``
        returned True earlier in this same cycle and no other send has
        happened since — exactly what the scan-then-grant phases ensure.
        """
        self._credits = self._credits - 1  # type: ignore[operator]
        self._last_send_cycle = now
        arrival = now + self.latency
        self._in_flight.push_span(arrival, worm, index, 1)
        self.flits_sent += 1
        if worm is self._drain:
            self._prepay(now, worm, index, 1)
        comp = self._arrival_comp
        if comp is not None:
            comp._rx_pending |= self._rx_bit
            if not index:
                if comp._route_lead >= 0:
                    arrival = self._head_wake(comp, worm, 1, arrival)
            elif worm is self._held and arrival <= self._held_through:
                return
            if comp._wake_marker != arrival:
                comp.wake_at(arrival)

    def send_span(self, now: int, worm: Worm, start: int, count: int) -> None:
        """Transmit ``count`` flits of ``worm`` from ``start`` in one call.

        Wire-identical to ``count`` single sends on consecutive cycles:
        one send slot and one credit per member flit (all reserved now)
        and member ``j`` arriving at ``now + latency + j``.  The arrival
        wake fires at most once, at the first cycle the receiver can act
        on the record (see the module docstring).
        Requires ``count <= sendable_span(now, worm)``.
        """
        if count < 1:
            raise ValueError("span count must be positive")
        if self._last_send_cycle >= now:
            raise ProtocolError(
                f"link {self.name}: second send in cycle {now}"
            )
        window = self.sendable_span(now, worm)
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
        if worm is self._drain:
            self._prepay(now, worm, start, count)
        comp = self._arrival_comp
        if comp is not None:
            comp._rx_pending |= self._rx_bit
            if not start:
                if comp._route_lead >= 0:
                    arrival = self._head_wake(comp, worm, count, arrival)
            elif worm is self._held and arrival <= self._held_through:
                return
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
