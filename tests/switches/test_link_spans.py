"""Span-boundary behaviour of the bulk link API.

``send_span``/``receive_span`` move whole spans per call but must stay
wire-identical to the same flits sent one per cycle: identical credit
trajectories, identical arrival cycles, identical wake-hook firings.
These tests pin the boundary cases — zero credits, credits smaller than
the pending span, exact fits, spans straddling a worm boundary — and the
record contract documented in ``repro.switches.link``: a record is
handed over whole once its head has landed, never before, its members
stay *flying* on the timeline until their cycle, and every send fires
its own arrival hook.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.flit import Flit
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.host.interface import HostInterface
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.switches.link import Link


def make_worm(size=8, universe=4, packet_id=0):
    destinations = DestinationSet.single(universe, 1)
    message = Message(
        0, 0, destinations, size - 1, TrafficClass.UNICAST, 0
    )
    packet = Packet(packet_id, message, destinations, 1, size - 1)
    return Worm.root(packet)


def make_link(depth=8, latency=1, credit_latency=None):
    link = Link("test", latency=latency, credit_latency=credit_latency)
    link.set_credits(depth)
    return link


def drain(link, now, limit=None):
    """Every (worm, start, count) span receivable at ``now``."""
    spans = []
    while link.pending_arrival(now):
        span = link.receive_span(now, limit)
        if span is None:
            break
        spans.append(span)
    return spans


class TestReceiveSpanBoundaries:
    def test_zero_credit_limit_delivers_nothing(self):
        # a receiver with no free buffer slots passes limit=0 and must
        # get nothing back — the span stays queued, untouched
        link = make_link()
        worm = make_worm()
        link.send_span(0, worm, 0, 4)
        assert link.pending_arrival(10)
        assert link.receive_span(10, 0) is None
        assert link.in_flight() == 4

    def test_limit_below_pending_takes_a_prefix(self):
        # credits < pending: the span splits; the remainder is
        # immediately receivable (its members have all arrived)
        link = make_link()
        worm = make_worm()
        link.send_span(0, worm, 0, 4)
        assert link.receive_span(10, 3) == (worm, 0, 3)
        assert link.receive_span(10, 3) == (worm, 3, 1)
        assert link.receive_span(10, 3) is None

    def test_exact_fit_takes_the_whole_span(self):
        link = make_link()
        worm = make_worm()
        link.send_span(0, worm, 0, 4)
        assert link.receive_span(10, 4) == (worm, 0, 4)
        assert not link.pending_arrival(10)
        assert link.in_flight() == 0

    def test_members_mature_one_per_cycle(self):
        # a span send is pipelined, not a burst: member j arrives at
        # latency + j.  The record is handed over whole at its head's
        # landing, dated — the members stay on the wire until their cycle
        link = make_link(latency=2)
        worm = make_worm()
        link.send_span(0, worm, 0, 4)
        assert not link.pending_arrival(1)
        assert link.receive_span(1) is None  # the head has not landed
        assert link.in_flight() == 4
        assert drain(link, 2) == [(worm, 0, 4)]
        assert link._in_flight.landing == 5
        assert link.in_flight() == 0  # raw: all four were taken
        assert [link.in_flight(now) for now in (2, 3, 4, 5, 6)] == [
            3, 2, 1, 0, 0
        ]
        # the per-flit drain over an identical record: the landed prefix
        link = make_link(latency=2)
        link.send_span(0, worm, 0, 4)
        taken = []
        for now in (2, 3, 5):
            taken.append([flit.index for flit in link.receive(now)])
        assert taken == [[0], [1], [2, 3]]

    def test_span_never_straddles_a_worm_boundary(self):
        # tail of one worm and head of the next, sent back to back on
        # consecutive cycles: one receive_span call returns members of
        # exactly one worm, with the tail span closed off first
        link = make_link()
        tail_worm, head_worm = make_worm(packet_id=1), make_worm(packet_id=2)
        link.send_span(0, tail_worm, 6, 2)  # last two flits (tail at 7)
        link.send_span(2, head_worm, 0, 2)  # next worm's head
        spans = drain(link, 10)
        assert spans == [(tail_worm, 6, 2), (head_worm, 0, 2)]

    def test_a_record_is_not_handed_over_before_its_head_lands(self):
        link = make_link(latency=3)
        worm = make_worm()
        link.send_span(0, worm, 0, 4)  # lands at 3, 4, 5, 6
        for now in (0, 1, 2):
            assert link.receive_span(now) is None
            assert link.receive_span(now, 2) is None
        # partial, then whole: the rest is a record under the same rule
        assert link.receive_span(3, 2) == (worm, 0, 2)
        assert link.receive_span(3) is None and link.receive_span(4) is None
        assert link.receive_span(5) == (worm, 2, 2)

    def test_the_timeline_is_the_same_whoever_took_what_when(self):
        # one link's receiver takes the record whole at its head, the
        # other's flit by flit as they land; neither has freed a slot
        whole, stepped = make_link(depth=6, latency=2), make_link(depth=6, latency=2)
        worm = make_worm()
        for link in (whole, stepped):
            link.send_span(0, worm, 0, 4)  # lands at 2, 3, 4, 5
            link.send_packed(7, worm, 4)  # lands at 9
        assert whole.receive_span(2) == (worm, 0, 4)
        held = 0
        for now in range(2, 12):
            held += len(stepped.receive(now))
            assert whole.in_flight(now) == stepped.in_flight(now)
            assert whole.accounted_credits(now) == (
                stepped.accounted_credits(now)
            ) == 6 - held
            if now == 9:
                assert whole.receive_span(9) == (worm, 4, 1)
        assert held == 5
        # landed and not taken is the receiver's, as before; taken ahead
        # is the wire's until its cycle
        link = make_link(depth=6, latency=2)
        link.send_span(0, worm, 0, 4)
        assert (link._in_flight.arrived(3), link.in_flight(3)) == (2, 2)
        link.receive_span(2)
        assert (link._in_flight.arrived(3), link.in_flight(3)) == (0, 2)
        assert link.in_flight() == 0  # raw: nothing left to take

    def test_receive_materialises_identical_flits(self):
        # object-plane drain over the same in-flight store
        link = make_link()
        worm = make_worm()
        link.send_span(0, worm, 2, 3)
        assert link.receive(10) == [
            Flit(worm, 2), Flit(worm, 3), Flit(worm, 4)
        ]


class TestSendSpanReservations:
    def test_span_reserves_one_slot_and_credit_per_member(self):
        link = make_link(depth=8)
        worm = make_worm()
        link.send_span(0, worm, 0, 3)
        assert link.credits(0) == 5  # three credits consumed up front
        # slots 0..2 are reserved: the next send fits at cycle 3
        assert not link.can_send(1)
        assert not link.can_send(2)
        assert link.can_send(3)
        assert link.sendable_span(2) == 0
        assert link.sendable_span(3) == 5

    def test_span_beyond_credits_rejected(self):
        link = make_link(depth=2)
        worm = make_worm()
        with pytest.raises(ProtocolError):
            link.send_span(0, worm, 0, 3)

    def test_zero_credits_blocks_any_span(self):
        link = make_link(depth=2)
        worm = make_worm()
        link.send_span(0, worm, 0, 2)
        assert link.sendable_span(5) == 0
        with pytest.raises(ProtocolError):
            link.send_span(5, worm, 2, 1)
        # returned credits mature and reopen the span window
        link.receive_span(10, None)
        link.return_credit(10, 2)
        assert link.sendable_span(11) == 2

    def test_send_granted_matches_send_packed_wire_state(self):
        # send_granted skips the redundant credit drain after a
        # can_send check; the resulting wire state must be identical
        granted, packed = make_link(), make_link()
        worm = make_worm()
        for now in range(3):
            assert granted.can_send(now)
            granted.send_granted(now, worm, now)
            packed.send_packed(now, worm, now)
        for link in (granted, packed):
            assert link.flits_sent == 3
            assert link.credits(2) == 5
            assert link.in_flight() == 3
        assert drain(granted, 10) == drain(packed, 10) == [(worm, 0, 3)]


class Recorder(Component):
    """Records every tick cycle; never re-arms on its own."""

    def __init__(self, name="rec"):
        super().__init__(name)
        self.ticks = []

    def tick(self, now):
        self.ticks.append(now)


class WakeLog(Component):
    """Never attached: records every wake cycle a link asks it for."""

    def __init__(self):
        super().__init__("log")
        self.wakes = []
        self.wake_at = self.wakes.append


class TestWakeSemantics:
    def test_arrival_hook_fires_once_at_first_arrival(self):
        link = make_link(latency=2)
        receiver = WakeLog()
        link.wake_on_arrival(receiver)
        link.send_span(0, make_worm(), 0, 4)
        assert receiver.wakes == [2]  # once, at the first member's arrival

    def test_every_send_fires_its_own_hook_merged_or_not(self):
        # an arrival is an event once per send: a send that joins a
        # record still queued fires at its own first arrival all the
        # same, and one that continues a record already taken is a
        # record of its own, which only that hook announces
        for taken_first in (False, True):
            link = make_link(latency=1)
            receiver = WakeLog()
            link.wake_on_arrival(receiver)
            worm = make_worm()
            link.send_span(0, worm, 0, 4)  # lands at 1 .. 4
            if taken_first:
                assert link.receive_span(1) == (worm, 0, 4)
            link.send_packed(4, worm, 4)  # lands at 5: contiguous
            assert receiver.wakes == [1, 5]
            if taken_first:
                assert link.receive_span(4) is None
                assert link.receive_span(5) == (worm, 4, 1)
            else:
                assert link._in_flight.records == 1
                assert link.receive_span(1) == (worm, 0, 5)

    def test_span_credit_return_wakes_match_single_flit_semantics(self):
        # the same four flits, once as a span and once as four single
        # sends on consecutive cycles: arrival cycles and credit-wake
        # cycles must be indistinguishable.  (The sender's own credit
        # counter differs *during* the span window — all member credits
        # are reserved up front — but reconverges as returns mature.)
        def run(as_span):
            link = make_link(depth=8, latency=1)
            sender = WakeLog()
            link.wake_on_credit(sender)
            worm = make_worm()
            arrivals, credit_trace = [], []
            landing = {}  # flit index -> the cycle it lands
            for now in range(12):
                if as_span:
                    if now == 0:
                        link.send_span(0, worm, 0, 4)
                else:
                    if now < 4 and link.can_send(now):
                        link.send_packed(now, worm, now)
                # the receiver takes records whole and dates the members
                for _, start, count in drain(link, now):
                    last = link._in_flight.landing
                    for index in range(start, start + count):
                        landing[index] = last - (start + count - 1 - index)
                for index in sorted(landing):
                    if landing[index] == now:
                        arrivals.append((index, now))
                        link.return_credit(now)
                credit_trace.append(link.credits(now))
            # past the send window the reserved-up-front credits have
            # reconverged with the one-per-cycle trajectory
            return arrivals, credit_trace[4:], sender.wakes

        assert run(as_span=True) == run(as_span=False)

    def test_component_waker_ticks_receiver_at_arrival_cycles(self):
        # wake_on_arrival wires the component itself; a span send must
        # tick it at the first arrival, where the receiver takes the
        # record whole — here we just check the hook cycle
        sim = Simulator()
        receiver = sim.add_component(Recorder())
        link = make_link(latency=3)
        link.wake_on_arrival(receiver)
        sim.schedule(1, lambda: link.send_span(sim.now, make_worm(), 0, 2))
        sim.run(20)
        assert receiver.ticks == [0, 4]  # registration tick + arrival

    def test_span_to_a_host_is_absorbed_member_by_member(self):
        # regression: the arrival hook fires once per span, so the NI
        # must come back for the later members itself — it used to
        # strand them until some unrelated wake came along.  It takes
        # the head at its landing and commits the rest of the record:
        # two ticks, and to an observer one member per cycle all the same
        sim = Simulator()
        interface = sim.add_component(HostInterface(1))
        link = Link("eject", latency=2)
        interface.connect_in(link)
        worm = make_worm(size=4)
        delivered = []
        interface.on_delivery(lambda w, now: delivered.append(now))
        ticks = []
        tick = interface.tick
        interface.tick = lambda now: (ticks.append(now), tick(now))
        sim.schedule(1, lambda: link.send_span(1, worm, 0, 4))
        ejected, returning, idle = [], [], []
        for _ in range(9):
            sim.run(1)  # the counters as of the end of cycle sim.now - 1
            ejected.append(interface.flits_ejected)
            returning.append(link.credits_in_return(sim.now - 1))
            idle.append(interface.idle())
        # members land at cycles 3, 4, 5, 6 and are ejected right there
        assert ejected == [0, 0, 0, 1, 2, 3, 4, 4, 4]
        assert idle == [True] * 3 + [False] * 3 + [True] * 3
        assert delivered == [6]
        assert interface._rx_pending == 0
        # one credit returned per member, dated by its own arrival cycle
        assert link.return_maturities() == [5, 6, 7, 8]
        assert returning[3:7] == [1, 2, 3, 4]
        assert link.credits(8) == HostInterface.RX_DEPTH
        assert ticks == [0, 3, 6]  # registration, head, end of the record

    def test_each_end_is_wired_once(self):
        link = make_link()
        receiver = Recorder()
        link.wake_on_arrival(receiver)
        with pytest.raises(ProtocolError):
            link.wake_on_arrival(receiver)
        link.wake_on_credit(receiver)
        with pytest.raises(ProtocolError):
            link.wake_on_credit(receiver)

    def test_marker_dedup_never_loses_a_wake(self):
        # two links firing the same component for the same arrival cycle:
        # the second fire hits the wake-marker fast path; the component
        # must still tick exactly once at that cycle
        sim = Simulator()
        receiver = sim.add_component(Recorder())
        a, b = make_link(), make_link()
        a.wake_on_arrival(receiver)
        b.wake_on_arrival(receiver)
        worm = make_worm()

        def fire():
            a.send_packed(sim.now, worm, 0)
            b.send_packed(sim.now, worm, 1)

        sim.schedule(2, fire)
        sim.run(10)
        assert receiver.ticks == [0, 3]


def wired(depth=1, latency=1, credit_latency=None):
    """A link whose sender is a :class:`Recorder`."""
    sim = Simulator()
    sender = sim.add_component(Recorder("snd"))
    link = make_link(depth, latency, credit_latency)
    link.wake_on_credit(sender)
    return sim, sender, link


class TestCreditWakeOnDemand:
    """Credits wake their sender only after it was refused one."""

    def test_no_wake_for_a_sender_that_never_asked(self):
        sim, sender, link = wired(depth=4)
        worm = make_worm()

        def traffic():
            link.send_packed(sim.now, worm, 0)
            link.receive_span(sim.now + 5)
            link.return_credit(sim.now)
            link.return_credit_ramp(sim.now, 2)

        sim.schedule(1, traffic)
        sim.run(20)
        assert sender.ticks == [0]  # the registration tick only
        assert link.credits(20) == 6  # the returns still matured

    def test_slot_refusal_is_not_a_credit_demand(self):
        sim, sender, link = wired(depth=4)
        sim.schedule(1, lambda: link.send_span(1, make_worm(), 0, 2))
        sim.schedule(2, lambda: (link.can_send(2), link.sendable_span(2)))
        sim.schedule(3, lambda: link.return_credit(3))
        sim.run(20)
        assert sender.ticks == [0]

    @pytest.mark.parametrize("ask", ["can_send", "sendable_span"])
    def test_woken_at_maturity_of_a_return_queued_after_it_asked(self, ask):
        sim, sender, link = wired(depth=1, credit_latency=3)
        sim.schedule(1, lambda: link.send_packed(1, make_worm(), 0))
        sim.schedule(2, lambda: getattr(link, ask)(2))  # refused: starved
        sim.schedule(5, lambda: link.return_credit(5))
        sim.schedule(6, lambda: link.return_credit(6))  # nobody asked again
        sim.run(20)
        assert sender.ticks == [0, 8]

    @pytest.mark.parametrize("ask", ["can_send", "sendable_span"])
    def test_woken_at_maturity_of_a_return_queued_before_it_asked(self, ask):
        sim, sender, link = wired(depth=1, credit_latency=3)
        sim.schedule(1, lambda: link.send_packed(1, make_worm(), 0))
        sim.schedule(2, lambda: link.return_credit(2))  # matures at 5
        sim.schedule(3, lambda: link.return_credit(3))
        sim.schedule(4, lambda: getattr(link, ask)(4))  # refused: starved
        sim.run(20)
        assert sender.ticks == [0, 5]  # the head return, not a later one

    def test_a_granted_request_leaves_no_demand_behind(self):
        sim, sender, link = wired(depth=2)
        sim.schedule(1, lambda: link.can_send(1))
        sim.schedule(2, lambda: link.return_credit(2))
        sim.run(20)
        assert sender.ticks == [0]


class TestCreditWindow:
    """``sendable_span`` counts queued returns from the cycle they
    mature; ``send_span`` validates against the same window."""

    def test_queued_ramp_extends_the_window_member_by_member(self):
        link = make_link(depth=3, credit_latency=1)
        worm = make_worm(size=16)
        link.send_span(0, worm, 0, 3)
        link.receive_span(10)
        # the receiver commits to freeing a slot at cycles 10, 11, 12:
        # returns mature at 11, 12, 13
        link.return_credit_ramp(10, 3)
        assert link.sendable_span(10) == 0  # nothing on hand yet
        assert link.sendable_span(11) == 3  # one on hand, two borrowed
        link.send_span(11, worm, 3, 3)
        assert link._credits == -2  # borrowed against queued returns
        assert link.accounted_credits() == 3
        assert link.credits(13) == 0 and not link.can_send(14)

    def test_a_return_maturing_too_late_closes_the_window(self):
        link = make_link(depth=1, credit_latency=4)
        worm = make_worm()
        link.send_packed(0, worm, 0)
        link.receive_span(1)
        link.return_credit(1)  # matures at 5
        link.return_credit(3)  # matures at 7: member 1 would leave at 6
        assert link.sendable_span(5) == 1
        with pytest.raises(ProtocolError):
            link.send_span(5, worm, 1, 2)
        link.send_span(5, worm, 1, 1)

    @pytest.mark.parametrize("seen", [True, False])
    def test_wire_schedule_is_tick_order_independent(self, seen):
        # the receiver frees a slot in cycle 4 (matures at 5).  Whether
        # the sender's tick of cycle 4 runs after it (return seen: one
        # span of two) or before it (not seen: two single sends), the
        # wire carries the same flits on the same cycles
        link = make_link(depth=1, credit_latency=1)
        worm = make_worm()
        link.send_packed(0, worm, 0)
        link.receive_span(1)
        link.return_credit(3)  # matures at 4
        if seen:
            link.return_credit(4)
            assert link.sendable_span(4) == 2
            link.send_span(4, worm, 1, 2)
        else:
            assert link.sendable_span(4) == 1
            link.send_span(4, worm, 1, 1)
            link.return_credit(4)
            assert link.sendable_span(5) == 1
            link.send_span(5, worm, 2, 1)
        assert link._in_flight.head() == (5, worm, 1, 2)
        assert link.credits(5) == 0 and link._last_send_cycle == 5

    def test_a_sink_deep_enough_for_the_round_trip_has_no_window(self):
        # a sink frees every slot as its flit lands: with a depth that
        # covers latency + credit latency no member can lack its credit
        link = Link("eject", latency=2)
        link.set_credits(4, sink=True)
        worm = make_worm(size=16)
        assert link.sendable_span(0) >= 15
        link.send_span(0, worm, 0, 15)
        assert link._credits == -11  # borrowed from its own members
        for member in range(15):
            link.return_credit(2 + member)  # lands, matures at 4 + member
            assert link.accounted_credits(2 + member) == 4
        # slot free again at 15: members 0..11 have paid by then
        assert link.can_send(15) and link.credits(15) == 1

    def test_a_shallower_sink_keeps_the_finite_window(self):
        link = Link("eject", latency=2)
        link.set_credits(3, sink=True)
        assert link.sendable_span(0) == 3
        with pytest.raises(ProtocolError):
            link.send_span(0, make_worm(), 0, 4)
        # and a receiver that is no sink has one whatever its depth
        assert make_link(depth=64, latency=2).sendable_span(0) == 64

    def test_ramp_is_queue_identical_to_per_cycle_returns(self):
        ramped, stepped = make_link(credit_latency=2), make_link(credit_latency=2)
        ramped.return_credit_ramp(7, 4)
        for now in range(7, 11):
            stepped.return_credit(now)
        assert ramped._credit_returns == stepped._credit_returns
        assert ramped.return_maturities() == [9, 10, 11, 12]
        assert len(ramped._credit_returns) == 1  # one record, not four

    def test_returns_stay_in_maturity_order(self):
        link = make_link(credit_latency=2)
        link.return_credit_ramp(5, 4)  # matures 7, 8, 9, 10
        link.return_credit(6, 2)  # matures 8: inside the ramp
        link.return_credit_ramp(6, 2)  # matures 8, 9
        link.return_credit(20)
        matures = link.return_maturities()
        assert matures == sorted(matures) == [7, 8, 8, 8, 8, 9, 9, 10, 22]
        assert link.credits_in_return() == 9
        # and no record reaches past the start of the next one, which is
        # what lets the drain look at the head record only
        records = list(link._credit_returns)
        for (first, count, stride), (later, _, _) in zip(records, records[1:]):
            assert first + (count - 1) * stride <= later
        # the drain stops at the first immature return, so order matters
        assert link.credits(8) == 8 + 1 + 1 + 2 + 1

    def test_introspection_counts_a_ramped_return_once_its_flit_left(self):
        link = make_link(depth=4, latency=1, credit_latency=2)
        worm = make_worm()
        link.send_span(0, worm, 0, 4)
        assert link.accounted_credits(0) == 4  # all four still flying
        # at cycle 4 the receiver has taken 0..3 and commits to forward
        # one per cycle from now on
        link.receive_span(4)
        link.return_credit_ramp(4, 4)
        assert link.credits_in_return() == 4
        for now, left in ((4, 1), (5, 2), (6, 3), (7, 4)):
            assert link.credits_in_return(now) == left
            # what the link accounts for plus what the receiver holds
            assert link.accounted_credits(now) + (4 - left) == 4

    def test_landed_but_untaken_flits_belong_to_the_receiver(self):
        link = make_link(depth=4, latency=1)
        link.send_span(0, make_worm(), 0, 4)  # lands at 1, 2, 3, 4
        assert link._in_flight.arrived(0) == 0
        assert link._in_flight.arrived(2) == 2
        assert link._in_flight.arrived(9) == 4
        assert link.in_flight() == 4  # raw: nothing was taken
        assert link.accounted_credits(2) == 2
        assert link.accounted_credits() == 4

    def test_flits_sent_by_follows_the_members_out_one_per_cycle(self):
        link = make_link(depth=8)
        worm = make_worm()
        link.send_packed(0, worm, 0)
        link.send_span(2, worm, 1, 4)  # leave at 2, 3, 4, 5
        assert link.flits_sent == 5  # the span counted whole, at once
        by_cycle = [link.flits_sent_by(now) for now in range(2, 8)]
        assert by_cycle == [2, 3, 4, 5, 5, 5]


class TestRampRecords:
    """``_credit_returns`` holds one record per ramp; everything that
    reads it must behave as if it held one entry per credit."""

    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(("single", "lump", "ramp", "dated", "drain")),
                st.integers(0, 3),
                st.integers(1, 6),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_records_behave_as_one_entry_per_credit(self, operations):
        latency = 2
        link = make_link(depth=4, credit_latency=latency)
        model = []  # maturity of every queued credit
        on_hand = 4
        now = 0
        for kind, advance, count in operations:
            now += advance
            if kind == "single":
                link.return_credit(now)
                model.append(now + latency)
            elif kind == "lump":
                link.return_credit(now, count)
                model.extend([now + latency] * count)
            elif kind == "ramp":
                link.return_credit_ramp(now, count)
                model.extend(now + latency + j for j in range(count))
            elif kind == "dated":  # an NI dates a ramp by landing cycle
                link.return_credit_ramp(now + count, 3)
                model.extend(now + count + latency + j for j in range(3))
            else:
                on_hand += sum(1 for mature in model if mature <= now)
                model = [mature for mature in model if mature > now]
                assert link.credits(now) == on_hand
            model.sort()
            assert link.return_maturities() == model
            assert link.credits_in_return() == len(model)
            assert link.credits_in_return(now) == sum(
                1 for mature in model if mature <= now + latency
            )
        # the span window, credit by credit: a return extends it if it
        # matures no later than the member it pays for
        on_hand += sum(1 for mature in model if mature <= now)
        window = on_hand
        for mature in (mature for mature in model if mature > now):
            if mature > now + window:
                break
            window += 1
        assert link.sendable_span(now) == window
