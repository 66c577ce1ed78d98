"""Committed runs are the per-flit reference, flit for flit.

The central-buffer switch commits a run of bypass flits in one
``send_span`` and sleeps through it (``repro.switches.central_buffer``),
the input-buffer switch does the same for the branches of a front worm
(``repro.switches.input_buffer``), the NI for a span record on its
ejection link (``repro.host.interface``), and credits wake their sender
only on demand (``repro.switches.link``).  None of it may move a single
flit by a single cycle.  The sweep below runs the timeline rows of
``tests/differential.py`` on the production flavour and on the
dense-kernel/object-flit reference and compares (``timeline``), per
link, the log of every flit sent ``(cycle, packet, index)`` and, after
every cycle, each link's credit accounting, each input buffer's
occupancy, each input port's worms with the flits of each that have
landed and its header stamp, and each NI's ejection state — the
introspection must keep the reference timeline while a run, or a record
taken whole at its head, is ahead of it — plus credit conservation and
the two FIFO-front masks on the way.  The unit cases pin where a run
must stop, and on which cycles a switch is awake at all.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.profile.kernel_profiler import KernelProfiler
from repro.obs.registry import MetricsRegistry
from repro.routing.base import UpPortPolicy
from repro.sim.trace import Tracer
from repro.switches.base import committed_run
from repro.switches.central_buffer import (
    _BypassFeed,
    _Ingress,
    _IngressState,
)
from repro.switches.arbiter import RoundRobinArbiter
from repro.switches.chunks import CentralBufferPool, StoredPacket
from repro.switches.input_buffer import InputBufferSwitch, _Branch
from repro.switches.input_buffer import _Ingress as _BufferIngress

from tests.differential import (
    CB,
    IB,
    ROW,
    TIMELINE_ROWS,
    flavour,
    log_sends,
    log_takes,
    sweep,
    timeline,
)
from tests.switches.test_central_buffer import (
    one_switch_config,
    run_to_quiescence,
    schedule_unicast,
)
from tests.switches.test_link_spans import make_link, make_worm
from tests.switches.test_input_buffer import (
    one_switch_config as one_buffer_switch_config,
)


def _bypass_run(ingress, in_link, out_link, now):
    """The run a central-buffer bypass feed would commit: its call into
    the run computation both architectures share."""
    return committed_run(
        ingress.received - ingress.consumed,
        ingress.worm.size_flits - 1 - ingress.consumed, now,
        in_link, ingress.worm, ingress.received, out_link=out_link,
    )


def assert_same_timeline(runs, scenario, dense, consumers=1, **params):
    """Production on the ``dense`` or the active kernel against the
    ground truth, which ``consumers`` comparisons read, on the row at
    ``params``; returns both timelines."""
    config = scenario.config(**params)
    fast = runs.run(
        timeline, scenario,
        flavour(config, "dense" if dense else "production"),
    )
    reference = runs.run(
        timeline, scenario, flavour(config, "ground-truth"), consumers
    )
    assert fast.observables == reference.observables
    assert fast.sends == reference.sends
    assert fast.rows == reference.rows
    assert not reference.committed
    assert (reference.cb_runs, reference.taken_ahead) == ((0, 0), 0)
    return fast, reference


class TestCommittedRunsAreTheReference:
    @given(
        scenario=st.sampled_from(TIMELINE_ROWS),
        seed=st.integers(0, 2 ** 16),
        dense=st.booleans(),
        link_latency=st.integers(1, 3),
        fifo_depth=st.sampled_from([2, 4, 8, 16]),
        routing_delay=st.integers(0, 5),
        ni_rx_depth=st.sampled_from([1, 2, 4, 8]),
        policy=st.sampled_from(list(UpPortPolicy)),
    )
    @sweep(
        20, TIMELINE_ROWS, seed=range(len(TIMELINE_ROWS)), dense=(False, True),
        link_latency=(1, 2, 3), fifo_depth=(2, 4, 8, 16),
        routing_delay=range(6), ni_rx_depth=(1, 2, 4, 8),
        policy=list(UpPortPolicy),
    )
    def test_send_logs_credits_and_occupancy_match_every_cycle(
        self, runs, scenario, seed, dense, link_latency, fifo_depth,
        routing_delay, ni_rx_depth, policy,
    ):
        assert_same_timeline(
            runs, scenario, dense, seed=seed, link_latency=link_latency,
            input_fifo_depth=fifo_depth, routing_delay=routing_delay,
            ni_rx_depth=ni_rx_depth, up_port_policy=policy,
        )

    @pytest.mark.parametrize("dense", [False, True])
    def test_the_ledger_stream_matches_every_cycle(self, runs, dense):
        # the sweep above samples its scenarios; this one always runs
        fast, _ = assert_same_timeline(
            runs, ROW["mcast-ib-64"], dense, consumers=2, seed=1
        )
        # the rows were read with records taken ahead of their members
        assert fast.taken_ahead
        # and it was swept as runs: worms of 64 flits and more leave in a
        # few calls per hop, and siblings that could send together did
        committed = fast.committed
        assert sum(call[-1] for call in committed) > 10 * len(committed)
        together = {
            (switch, now, worm.packet.packet_id)
            for switch, now, worm, _, _ in committed
        }
        assert len(together) < len(committed)

    @pytest.mark.parametrize("dense", [False, True])
    def test_the_ledger_stream_through_the_central_buffer(self, runs, dense):
        fast, _ = assert_same_timeline(
            runs, ROW["mcast-cb-64"], dense, consumers=2, seed=1
        )
        # written and read as runs: a worm crosses a central buffer in a
        # few calls each way, not one per flit — and taken off the links
        # as records, ahead of their members
        write_runs, read_runs = fast.cb_runs
        assert write_runs and read_runs and fast.taken_ahead
        committed = fast.committed
        assert sum(call[-1] for call in committed) > 5 * len(committed)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize(
        "label", ("hotspot-short-pool", "mcast-short-pool", "hotspot-thin-shared")
    )
    def test_a_pool_that_runs_short_matches_every_cycle(
        self, runs, label, dense
    ):
        fast, reference = assert_same_timeline(
            runs, ROW[label], dense, consumers=2, seed=5
        )
        # the pool did refuse — writes for the unicasts, admissions for
        # the multidestination worms — and runs were committed around it
        assert fast.refused + reference.refused > 50
        write_runs, read_runs = fast.cb_runs
        assert write_runs and read_runs and fast.taken_ahead

    @pytest.mark.parametrize("dense", [False, True])
    def test_contended_bandwidth_commits_no_central_buffer_run(
        self, runs, dense
    ):
        fast, _ = assert_same_timeline(
            runs, ROW["mcast-bandwidth-2"], dense, consumers=2, seed=5
        )
        # fewer grants than askers: bandwidth is a timing input, every
        # flit through the buffer takes the arbitrated path (the bypass
        # feeds, which do not contend for it, still commit)
        assert fast.cb_runs == (0, 0)
        assert fast.committed and fast.taken_ahead

    @pytest.mark.parametrize("dense", [False, True])
    def test_lock_step_branches_match_every_cycle(self, runs, dense):
        # lock-step branches never commit a run, but their records are
        # taken whole all the same (the sweep samples this row too)
        fast, _ = assert_same_timeline(
            runs, ROW["mcast-ib-sync"], dense, consumers=2, seed=5
        )
        assert fast.taken_ahead


def switch_out_links(network):
    return [
        link
        for switch in network.switches
        for link in switch.out_links
        if link is not None
    ]


def one_switch_run(payloads=(16, 40)):
    """Unicasts through one 8-port switch; returns (network, span calls
    made by the switch, flits it sent per out-link)."""
    network = build_network(one_switch_config())
    flits, spans = log_sends(network)
    for source, payload in enumerate(payloads):
        schedule_unicast(network, 3 * source, source, 7 - source, payload)
    run_to_quiescence(network)
    names = [link.name for link in switch_out_links(network)]
    return (
        network,
        [call for name in names for call in spans[name]],
        {name: flits[name] for name in names},
    )


def span_counts(config, posts):
    """Sizes of the spans the switches of ``config`` commit for the
    unicast ``posts`` (cycle, source, destination, payload): toward other
    switches, toward hosts."""
    network = build_network(config)
    _, spans = log_sends(network)
    for post in posts:
        schedule_unicast(network, *post)
    run_to_quiescence(network)
    ejection = {interface.in_link for interface in network.interfaces}
    between, to_host = [], []
    for link in switch_out_links(network):
        counts = [count for _, _, _, count in spans[link.name]]
        (to_host if link in ejection else between).extend(counts)
    return between, to_host


class TestWholeSwitch:
    def test_bypass_flits_leave_in_runs_and_the_tail_alone(self):
        network, calls, flits = one_switch_run()
        assert calls and all(count >= 2 for _, _, _, count in calls)
        for _, worm, start, count in calls:
            assert start + count <= worm.size_flits - 1  # tail excluded
        # far fewer send calls than flits: that is the point
        assert 3 * len(calls) < sum(len(sent) for sent in flits.values())
        (switch,) = network.switches
        assert switch.idle()

    def test_runs_stop_at_the_credit_window(self):
        posts = ((0, 0, 7, 16), (3, 1, 6, 40))
        # toward a switch the window is its input FIFO — credits on hand
        # plus the returns already travelling back — never more
        config = SimulationConfig(
            num_hosts=16, sw_send_overhead=0, sw_recv_overhead=0
        )
        between, _ = span_counts(config, ((0, 0, 15, 40), (3, 5, 10, 40)))
        assert max(between) == config.input_fifo_depth
        # a host's NI hands each credit back as the flit lands: a depth
        # that covers the credit round trip never throttles (the sink
        # rule), so a run is whatever the input FIFO supplies
        config = one_switch_config()
        assert config.ni_rx_depth >= 2 * config.link_latency
        _, to_host = span_counts(config, posts)
        assert max(to_host) == config.input_fifo_depth > config.ni_rx_depth
        # a shallower NI does throttle: the window is its depth, never more
        config = one_switch_config(link_latency=2, ni_rx_depth=3)
        _, to_host = span_counts(config, posts)
        assert max(to_host) == config.ni_rx_depth

    def test_an_input_buffer_branch_sends_a_worm_minus_its_tail_in_one_call(
        self,
    ):
        # the input buffer holds a whole worm and the NI injects it as one
        # span, so toward a host that never throttles nothing stops a run
        posts = ((0, 0, 7, 16), (3, 1, 6, 40))  # 17 and 41 flits
        _, to_host = span_counts(one_buffer_switch_config(), posts)
        assert sorted(to_host) == [16, 40]
        # an NI too shallow for the credit round trip does throttle:
        # its window of one is the single-flit path
        _, to_host = span_counts(
            one_buffer_switch_config(ni_rx_depth=1), posts
        )
        assert to_host == []


class TickLog(KernelProfiler):
    """The kernel profiler, also keeping which component ticked when."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.ticked = []

    def record_tick(self, component):
        super().record_tick(component)
        self.ticked.append((self.sim.now, component.name))


@contextmanager
def log_buffer_runs():
    """Every central-buffer write run ``(now, count)`` and dated release
    ``(chunks, date)`` committed inside the block, in order."""
    log = []
    write_run, release_at = StoredPacket.write_run, CentralBufferPool.release_at

    def logged_write(stored, now, count):
        log.append(("write_run", now, count))
        write_run(stored, now, count)

    def logged_release(pool, charge, chunks, date):
        log.append(("release_at", chunks, date))
        release_at(pool, charge, chunks, date)

    StoredPacket.write_run = logged_write
    CentralBufferPool.release_at = logged_release
    try:
        yield log
    finally:
        StoredPacket.write_run = write_run
        CentralBufferPool.release_at = release_at


class TestObservedIsProduction:
    """Telemetry watches the run, it does not select it: with registry
    *and* tracer enabled every component ticks on the cycles, and every
    link carries the send calls and hands over the records, of the same
    network built with neither."""

    @staticmethod
    def execution(config, make_workload, **observers):
        network = build_network(config, **observers)
        calls = []
        log_sends(network, calls)
        takes = log_takes(network)
        ticks = TickLog(network.sim)
        network.sim.attach_profiler(ticks)
        with log_buffer_runs() as buffered:
            result = run_workload(network, make_workload())
        return (
            (result.cycles, result.summary()),
            ticks.ticks_by_class, ticks.ticked, calls, buffered, takes,
        )

    @pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
    @pytest.mark.parametrize(
        "label", ("saturating-unicast", "degree-16-stream", "hotspot")
    )
    def test_same_ticks_and_same_send_calls(self, label, architecture):
        scenario = ROW[label]
        config = scenario.config(architecture, seed=11)
        plain = self.execution(config, scenario.make_workload)
        registry = MetricsRegistry()
        tracer = Tracer()
        observed = self.execution(
            config, scenario.make_workload, metrics=registry, tracer=tracer
        )
        for ours, theirs in zip(observed, plain):
            assert ours == theirs
        # and it was watched, and it is the execution that commits runs
        assert registry.counters["switch.flits_forwarded"].value > 0
        assert tracer.records
        assert any(count > 1 for *_, count in observed[3])
        # ... and takes records whole: fewer takes than send calls would
        # be one per record (sends merge), several per record one per
        # landing
        assert len(observed[5]) < 1.5 * len(observed[3])
        # central-buffer write runs and dated releases among them
        kinds = {kind for kind, *_ in observed[4]}
        assert kinds == (
            {"write_run", "release_at"} if architecture is CB else set()
        )


class TestSleepRule:
    """The cycles a switch is awake on, exactly: an arrival is an event
    once per send, taking a record is not a stir, and what its later
    members allow is dated."""

    @staticmethod
    def ticked(network):
        (switch,) = network.switches
        ticks = []
        tick = switch.tick
        switch.tick = lambda now: (ticks.append(now), tick(now))
        return switch, ticks

    def test_one_unicast_through_an_idle_central_buffer_switch(self):
        config = one_switch_config()
        assert (config.link_latency, config.routing_delay) == (1, 2)
        assert config.input_fifo_depth == 8
        network = build_network(config)
        _, ticks = self.ticked(network)
        schedule_unicast(network, 5, 0, 7, 24)  # 25 flits
        run_to_quiescence(network)
        # the NI sends what the FIFO's credits admit, 8 flits at cycle 6
        # and again as each bypass run hands the slots back
        assert ticks == [
            0,   # registration
            7,   # the header lands, with its record: sleep to the expiry
            9,   # routing delay over: bypass, a run of 8 (cycles 9-16)
            15,  # the NI's second span (its own hook); inside the run
            17,  # run over: the next 8
            23, 25,  # and again
            31,  # the tail lands, alone
            33,  # run over: the tail leaves
        ]

    def test_one_unicast_through_an_idle_input_buffer_switch(self):
        config = one_buffer_switch_config()
        assert (config.link_latency, config.routing_delay) == (1, 2)
        network = build_network(config)
        _, ticks = self.ticked(network)
        schedule_unicast(network, 5, 0, 7, 24)
        run_to_quiescence(network)
        # the buffer holds the worm and the NI sends it as one record:
        # header landing, routing expiry (a run of 24), run end (tail)
        assert ticks == [0, 7, 9, 33]

    @pytest.mark.parametrize("config", (
        one_switch_config(input_fifo_depth=16), one_buffer_switch_config(),
    ), ids=("cb", "ib"))
    def test_a_record_behind_a_credit_blocked_worm_costs_one_tick(
        self, config
    ):
        network = build_network(config)
        switch, ticks = self.ticked(network)
        out_link = switch.out_links[7]
        out_link._unthrottled, out_link._credits = False, 0
        schedule_unicast(network, 5, 0, 7, 3)   # 4 flits, as one record
        schedule_unicast(network, 20, 0, 7, 7)  # 8 flits, as one record
        network.sim.run(60)
        # the front worm is routed and refused a credit that never
        # comes; the record behind it lands over cycles 22-29 and is
        # taken at 22
        assert ticks == [0, 7, 9, 22]
        front, behind = switch._inflow[0]
        assert (behind.received, behind.last_landing) == (8, 29)
        assert out_link._credit_wanted and not out_link.flits_sent


    @pytest.mark.parametrize("config", (
        one_switch_config(), one_buffer_switch_config(),
    ), ids=("cb", "ib"))
    def test_taking_a_record_is_not_a_stir(self, config):
        # a header of three flits whose first two arrive alone: nothing
        # is dated yet and nothing can move, so the switch must not look
        # again before the send that completes the header (a switch
        # stirred by the accept would: a front worm still arriving is
        # none of the things `_inside_runs` lets it sleep on)
        network = build_network(config)
        switch, ticks = self.ticked(network)
        destinations = DestinationSet.single(config.num_hosts, 5)
        message = Message(0, 0, destinations, 5, TrafficClass.UNICAST, 0)
        worm = Worm.root(Packet(0, message, destinations, 3, 5))
        link = switch.in_links[0]
        network.interfaces[5].on_delivery(lambda worm, now: None)
        sim = network.sim
        sim.schedule_at(5, lambda: link.send_span(5, worm, 0, 2))
        sim.schedule_at(10, lambda: link.send_span(10, worm, 2, 6))
        sim.run(40)
        # lands 6-7 and 11-16; flit 2 completes the header at 11, the
        # routing delay runs to 13, the run of 7 (0-6) ends at 20 (CB: a
        # FIFO of 8 already holds it all) and the tail leaves
        assert ticks == [0, 6, 11, 13, 20]
        assert switch.idle()


class TestRunBoundaries:
    """``_bypass_run`` on a hand-built ingress between two bare links."""

    NOW = 20

    def rig(self, size=12, received=3, consumed=0, window=8):
        worm = make_worm(size=size)
        ingress = _Ingress(worm)
        ingress.received, ingress.consumed = received, consumed
        in_link, out_link = make_link(depth=16), make_link(depth=window)
        return worm, ingress, in_link, out_link

    def test_fifo_flits_plus_the_contiguous_head_record(self):
        worm, ingress, in_link, out_link = self.rig()
        in_link.send_span(self.NOW, worm, 3, 5)  # lands at NOW+1 .. NOW+5
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 8

    def test_record_landing_exactly_on_its_turn_still_counts(self):
        worm, ingress, in_link, out_link = self.rig()
        in_link.send_span(self.NOW + 2, worm, 3, 5)  # member 0 at NOW+3
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 8

    def test_record_landing_after_its_turn_gives_no_lookahead(self):
        worm, ingress, in_link, out_link = self.rig()
        in_link.send_span(self.NOW + 3, worm, 3, 5)  # member 0 at NOW+4
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 3

    def test_head_record_of_another_worm_gives_no_lookahead(self):
        _, ingress, in_link, out_link = self.rig()
        in_link.send_span(self.NOW, make_worm(packet_id=9), 3, 5)
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 3

    def test_non_contiguous_start_gives_no_lookahead(self):
        worm, ingress, in_link, out_link = self.rig()
        in_link.send_span(self.NOW, worm, 4, 5)  # flit 3 is missing
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 3

    def test_tail_is_never_a_member(self):
        worm, ingress, in_link, out_link = self.rig(
            size=6, received=6
        )
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 5
        # look-ahead must not reach it either
        worm, ingress, in_link, out_link = self.rig(size=6)
        in_link.send_span(self.NOW, worm, 3, 3)
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 5

    def test_one_body_flit_before_the_tail_is_not_a_run(self):
        _, ingress, in_link, out_link = self.rig(
            size=6, received=6, consumed=4
        )
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 0

    def test_run_stops_at_the_credit_window(self):
        _, ingress, in_link, out_link = self.rig(
            received=9, window=4
        )
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 4
        # a return already travelling back widens it, from its maturity
        out_link.return_credit_ramp(self.NOW + 2, 2)  # matures NOW+3, NOW+4
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 6

    def test_window_of_one_is_the_single_flit_path(self):
        _, ingress, in_link, out_link = self.rig(
            received=9, window=1
        )
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 0

    def test_flits_taken_ahead_count_and_the_record_behind_them_too(self):
        # flits 0..5 were taken with their record's head, the last of
        # them lands at NOW+3 (so 0..2 have landed); the send that
        # continues them is a record of its own, its head at NOW+4
        worm, ingress, in_link, out_link = self.rig(received=6)
        ingress.last_landing = self.NOW + 3
        assert ingress.landed_by(self.NOW) == 3
        in_link.send_span(self.NOW + 3, worm, 6, 2)  # lands NOW+4, NOW+5
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 8
        # a mover that has caught up with the landings has no run — it
        # does not get this far, see TestDatedReceive — and one flit
        # behind them it has them all
        ingress.consumed = 2
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 6


class TestDatedReceive:
    """No flit moves, and nobody is counted blocked on it, before the
    cycle it lands: every mover tests its cursor against
    ``landed_by(now)``, whatever ``received`` says.  (A mover looked at
    once per cycle never gets ahead of the landings by itself; these
    cases put it there by hand.)"""

    NOW = 20

    def taken_ahead(self, ingress, received, landed):
        """``received`` flits taken, ``landed`` of them by ``NOW``."""
        ingress.received = received
        ingress.last_landing = self.NOW + received - landed
        assert ingress.landed_by(self.NOW) == landed
        assert ingress.landed_by(self.NOW + 1) == landed + 1

    def test_a_central_buffer_writer_waits_for_the_landing(self):
        rig = TestCentralBufferRuns()
        switch, ingress, stored, _ = rig.rig(received=8)
        rig.written(stored, 3)
        ingress.consumed = 3
        self.taken_ahead(ingress, received=8, landed=3)
        switch._write_central_buffer(self.NOW)
        assert (ingress.consumed, stored.flits_written) == (3, 3)
        assert not switch._write_standing and not switch._stirred
        switch.sim.now = self.NOW
        assert switch.fifo_occupancy(0) == 0
        # the cycle flit 3 lands, the four taken behind it follow it
        switch._write_central_buffer(self.NOW + 1)
        assert (stored.flits_written, stored.last_write) == (
            8, self.NOW + 5
        )

    def bypass_rig(self):
        network = build_network(one_switch_config())
        (switch,) = network.switches
        worm = make_worm(size=12)
        ingress = _Ingress(worm)
        ingress.state = _IngressState.STREAM_BYPASS
        ingress.bypass_worm, ingress.bypass_port = worm, 7
        switch._inflow[0].append(ingress)
        switch._ingress_occupied = 1
        feed = switch._out_current[7] = _BypassFeed(0, ingress)
        switch._egress_busy = 1 << 7
        _, spans = log_sends(network)
        return switch, ingress, feed, spans[switch.out_links[7].name]

    def test_a_bypass_feed_waits_for_the_landing(self):
        switch, ingress, feed, sent = self.bypass_rig()
        ingress.consumed = 3
        self.taken_ahead(ingress, received=8, landed=3)
        switch._advance_bypass(7, feed, self.NOW)
        assert not sent and ingress.consumed == 3 and not switch._stirred
        # out of flits for now, but not for the next cycle: it polls
        switch._stirred = True
        assert not switch._inside_runs(self.NOW)
        switch._advance_bypass(7, feed, self.NOW + 1)
        assert [call[2:] for call in sent] == [(3, 5)]
        assert switch._inside_runs(self.NOW + 1)

    def branch_rig(self, reads, **observers):
        """``TestGroupBoundaries.rig``: a front worm at input 0 with one
        branch per output from 1 up; the span calls per output."""
        switch, ingress, calls = TestGroupBoundaries().rig(
            reads, **observers
        )
        return switch, ingress, calls[1:len(reads) + 1]

    def test_an_input_buffer_branch_waits_and_is_not_counted_blocked(self):
        registry = MetricsRegistry()
        switch, ingress, (sent,) = self.branch_rig((10,), metrics=registry)
        self.taken_ahead(ingress, received=30, landed=10)
        link = switch.out_links[1]
        link._unthrottled, link._credits = False, 0
        blocked = registry.counters["switch.blocked_cycles"]
        switch._drive_outputs(self.NOW)
        assert not sent and blocked.value == 0
        assert not link._credit_wanted  # nor was the link even asked
        # out of flits for now, but not for the next cycle: it polls
        assert not switch._inside_runs(self.NOW)
        # with its flit there it is short of a credit, and counted —
        # and sleeps on the link's wake
        switch._drive_outputs(self.NOW + 1)
        assert not sent and blocked.value == 1 and link._credit_wanted
        assert switch._inside_runs(self.NOW + 1)
        link._credits = 40
        switch._drive_outputs(self.NOW + 2)
        assert [call[2:] for call in sent] == [(10, 20)]

    def test_a_group_leaves_out_the_branch_that_has_caught_up(self):
        switch, ingress, (behind, ahead) = self.branch_rig((10, 12))
        self.taken_ahead(ingress, received=30, landed=12)
        assert switch._commit_group(0, ingress, self.NOW) == 2
        # the branch at 12 has no flit yet: it stays, and caps the run
        assert [call[2:] for call in behind] == [(10, 2)] and not ahead

    def test_lock_step_branches_wait_for_the_landing(self):
        switch, ingress, (first, second) = self.branch_rig((10, 10))
        self.taken_ahead(ingress, received=30, landed=10)
        flits = []
        for link in switch.out_links[1:3]:
            link.send_packed = (
                lambda now, worm, index, _name=link.name:
                flits.append((_name, now, index))
            )
        switch._advance_lockstep(ingress, self.NOW)
        assert not flits and not switch._stirred
        switch._advance_lockstep(ingress, self.NOW + 1)
        assert [flit[1:] for flit in flits] == [(self.NOW + 1, 10)] * 2


class TestGroupBoundaries:
    """``InputBufferSwitch._commit_group`` on a hand-built front worm:
    input 0 of a one-switch network, one branch per output from 1 up,
    each current on its output unless a case says otherwise."""

    NOW = 20
    SIZE = 40

    def rig(self, reads, received=30, **observers):
        network = build_network(one_buffer_switch_config(), **observers)
        (switch,) = network.switches
        assert isinstance(switch, InputBufferSwitch)
        worm = make_worm(size=self.SIZE)
        ingress = _BufferIngress(worm)
        ingress.received = received
        ingress.freed = min(reads)
        switch._inflow[0].append(ingress)
        switch._ingress_occupied = 1
        for out_port, read in enumerate(reads, start=1):
            branch = _Branch(worm, out_port, 0, ingress)
            branch.read = read
            ingress.branches.append(branch)
            switch._current[out_port] = branch
            switch._egress_busy |= 1 << out_port
        _, spans = log_sends(network)
        calls = [
            spans[link.name] if link is not None else []
            for link in switch.out_links
        ]
        return switch, ingress, calls

    def commit(self, switch, ingress):
        return switch._commit_group(0, ingress, self.NOW)

    def returned(self, switch):
        """Maturity cycles of the credits handed back upstream."""
        return switch.in_links[0].return_maturities()

    def test_equal_reads_both_sendable_is_one_ramp(self):
        switch, ingress, calls = self.rig(reads=(10, 10))
        assert self.commit(switch, ingress) == 2 * 20
        span = (self.NOW, ingress.worm, 10, 20)  # all that was received
        assert calls[1] == calls[2] == [span]
        assert [branch.read for branch in ingress.branches] == [30, 30]
        # the slowest cursor moves with the group: a slot a cycle
        assert ingress.freed == 30
        assert self.returned(switch) == [
            self.NOW + 1 + j for j in range(20)
        ]

    def test_a_branch_waiting_for_a_busy_output_pins_the_cursor(self):
        switch, ingress, calls = self.rig(reads=(10, 0))
        waiting = ingress.branches[1]
        switch._current[2] = object()  # another worm's branch owns it
        assert self.commit(switch, ingress) == 20
        assert calls[1] == [(self.NOW, ingress.worm, 10, 20)]
        assert calls[2] == []
        # strictly behind the group: nothing is freed, whatever it does
        assert ingress.freed == 0 and self.returned(switch) == []
        # ... until the slow one moves: granted, it sends its first flit
        # while the run is still ahead of the timeline
        switch._current[2] = waiting
        waiting.read = 1
        switch._recycle_slots(0, ingress, self.NOW + 1)
        assert ingress.freed == 1
        assert self.returned(switch) == [self.NOW + 2]

    def test_a_branch_stalled_at_the_groups_read_means_no_commit(self):
        switch, ingress, calls = self.rig(reads=(10, 10))
        switch.out_links[2]._credits = 0  # neither behind nor ahead
        assert self.commit(switch, ingress) == 0
        assert not any(calls) and self.returned(switch) == []
        assert [branch.read for branch in ingress.branches] == [10, 10]

    def test_a_branch_mid_run_behind_on_the_timeline_means_no_commit(self):
        # branch 2 committed up to flit 25 but has 20 of them still to
        # leave: on the timeline it is at 5, behind the group, and will
        # be passed by nobody — strictly between
        switch, ingress, calls = self.rig(reads=(10, 25))
        switch.out_links[2]._last_send_cycle = self.NOW + 19
        assert self.commit(switch, ingress) == 0
        assert not any(calls) and self.returned(switch) == []

    def test_a_stalled_branch_ahead_caps_the_run(self):
        switch, ingress, calls = self.rig(reads=(10, 15))
        switch.out_links[2]._credits = 0
        assert self.commit(switch, ingress) == 5
        assert calls[1] == [(self.NOW, ingress.worm, 10, 5)]
        assert ingress.freed == 15
        assert self.returned(switch) == [self.NOW + 1 + j for j in range(5)]

    def test_a_branch_in_a_run_ahead_caps_the_run_at_where_it_ends(self):
        # branch 2 is at 15 on the timeline and committed up to 22
        switch, ingress, calls = self.rig(reads=(10, 22))
        switch.out_links[2]._last_send_cycle = self.NOW + 6
        assert self.commit(switch, ingress) == 12
        assert calls[1] == [(self.NOW, ingress.worm, 10, 12)]
        assert ingress.freed == 22

    def test_a_finished_branch_caps_nothing(self):
        switch, ingress, calls = self.rig(reads=(10, self.SIZE))
        switch._current[2] = None
        assert self.commit(switch, ingress) == 20
        assert ingress.freed == 30

    def test_unequal_reads_share_the_shortest_reach(self):
        # the branch further on has less of the buffer left to send
        switch, ingress, calls = self.rig(reads=(10, 18))
        assert self.commit(switch, ingress) == 2 * 12
        assert calls[1] == [(self.NOW, ingress.worm, 10, 12)]
        assert calls[2] == [(self.NOW, ingress.worm, 18, 12)]
        assert ingress.freed == 22


class TestCentralBufferRuns:
    """The write and read halves of the central-buffer switch on
    hand-built state: input 0 of a one-switch network streams a worm
    into the buffer, branch cursors read it on outputs 1 and 2."""

    NOW = 20
    SIZE = 40

    def rig(self, received=6, reserve_all=True, **overrides):
        config = one_switch_config(
            cb_write_bandwidth=16, cb_read_bandwidth=16, **overrides
        )
        network = build_network(config)
        (switch,) = network.switches
        worm = make_worm(size=self.SIZE)
        ingress = _Ingress(worm)
        ingress.received = received
        ingress.state = _IngressState.STREAM_CB
        stored = ingress.stored = StoredPacket(
            switch.pool, 0, self.SIZE, reserve_all=reserve_all
        )
        if reserve_all:
            assert stored.try_admit(self.NOW - 1)
        switch._inflow[0].append(ingress)
        switch._ingress_occupied = switch._cb_feed = 1
        self.flits, spans = log_sends(network)
        return switch, ingress, stored, spans

    def reader(self, switch, stored, out_port, read=0):
        cursor = stored.add_branch(make_worm(size=self.SIZE), out_port)
        cursor.read = read
        switch._out_current[out_port] = cursor
        switch._egress_busy |= 1 << out_port
        return cursor

    def written(self, stored, upto):
        """Hand the stored packet ``upto`` flits, written in the past."""
        while stored.flits_written < upto:
            assert stored.ensure_write_space(self.NOW - 1)
            stored.write_flit()

    def sent(self, switch, spans, out_port):
        return [
            (now, start, count)
            for now, _, start, count in spans[switch.out_links[out_port].name]
        ]

    # -- the write half ---------------------------------------------------
    def test_an_admitted_worm_writes_fifo_flits_and_the_head_record(self):
        switch, ingress, stored, _ = self.rig(received=3)
        in_link = switch.in_links[0]
        in_link.send_span(self.NOW, ingress.worm, 3, 5)  # lands NOW+1 ..
        switch._write_central_buffer(self.NOW)
        assert (ingress.consumed, stored.flits_written) == (8, 8)
        assert stored.last_write == self.NOW + 7
        # dated: one flit a cycle, one FIFO slot back a cycle
        assert [
            stored.written_by(self.NOW + j) for j in (0, 1, 6, 7, 8)
        ] == [1, 2, 7, 8, 8]
        assert in_link.return_maturities() == [
            self.NOW + 1 + j for j in range(8)
        ]
        # the slots still to be emptied count as occupied meanwhile
        ingress.received = 8
        in_link._in_flight.take(self.NOW + 5)
        switch.sim.now = self.NOW + 2
        assert switch.fifo_occupancy(0) == 5
        assert switch._inside_runs(self.NOW + 2)
        # past the run the writer waits for the send that brings flit 8,
        # and polls as soon as that has landed
        assert switch._inside_runs(self.NOW + 7)
        ingress.received, ingress.last_landing = 10, self.NOW + 9
        assert switch._inside_runs(self.NOW + 6)
        assert not switch._inside_runs(self.NOW + 7)

    def test_the_tail_is_never_written_by_a_run(self):
        switch, ingress, stored, _ = self.rig(received=self.SIZE)
        ingress.consumed = self.SIZE - 5
        self.written(stored, self.SIZE - 5)
        switch._write_central_buffer(self.NOW)
        assert stored.flits_written == self.SIZE - 1
        # one body flit before the tail is not a run either
        switch._write_central_buffer(self.NOW + 4)
        assert (stored.flits_written, stored.last_write) == (
            self.SIZE, self.NOW + 3
        )
        assert not switch._inflow[0] and not switch._cb_feed

    def test_an_incremental_unicast_stops_where_its_chunk_ends(self):
        switch, ingress, stored, _ = self.rig(received=8, reserve_all=False)
        switch.in_links[0].send_span(self.NOW - 2, ingress.worm, 8, 8)
        ingress.consumed = 3
        self.written(stored, 3)
        pool = switch.pool
        assert pool.used_chunks == 1
        switch._write_central_buffer(self.NOW)
        # five flits to the end of the chunk it holds, no allocation
        assert (stored.flits_written, stored.last_write) == (8, self.NOW + 4)
        assert pool.used_chunks == 1
        # inside the run the input asks and is granted, and takes nothing
        for cycle in range(self.NOW + 1, self.NOW + 5):
            switch._write_central_buffer(cycle)
            assert pool.used_chunks == 1 and stored.flits_written == 8
        # the flit that needs the next chunk takes it on its own cycle —
        # and begins the next run
        ingress.received = 16
        switch._write_central_buffer(self.NOW + 5)
        assert pool.used_chunks == 2
        assert pool.occupancy.average(self.NOW + 6) == pytest.approx(
            (6 + 2 * 1) / (self.NOW + 6)
        )
        assert (stored.flits_written, stored.last_write) == (
            16, self.NOW + 12
        )

    def test_a_refused_chunk_is_asked_for_again_each_cycle(self):
        switch, ingress, stored, _ = self.rig(received=12, reserve_all=False)
        ingress.consumed = 8
        self.written(stored, 8)
        pool = switch.pool
        hog = pool.try_take(
            0, pool.free_shared + pool.free_quota[0], self.NOW - 1
        )
        switch._write_central_buffer(self.NOW)
        assert stored.flits_written == 8 and switch._starved
        # a release dated NOW + 3 is a wake source: visible from NOW + 4
        pool.release_at(hog, 1, self.NOW + 3)
        assert switch._blocked_wake(self.NOW) == self.NOW + 4
        switch._write_central_buffer(self.NOW + 3)
        assert stored.flits_written == 8
        switch._write_central_buffer(self.NOW + 4)
        assert stored.flits_written == 12  # what it has, as a run

    def feed(self, switch, port, written, on_hand, reserve_all=False):
        """One more front worm streaming into the buffer, at input
        ``port``: ``written`` flits written in the past, ``on_hand``
        more in its FIFO."""
        ingress = _Ingress(make_worm(size=self.SIZE, packet_id=port))
        ingress.state = _IngressState.STREAM_CB
        ingress.stored = StoredPacket(
            switch.pool, port, self.SIZE, reserve_all
        )
        if reserve_all:
            assert ingress.stored.try_admit(self.NOW - 1)
        self.written(ingress.stored, written)
        ingress.consumed = written
        ingress.received = written + on_hand
        switch._inflow[port].append(ingress)
        switch._ingress_occupied |= 1 << port
        switch._cb_feed |= 1 << port
        return ingress

    def allocation_race(self, pointer):
        """Input 3 writes a run of 8 from NOW; input 5 a flit at a time
        toward the end of its chunk; input 0 sits at the end of its own.
        Returns a function that lets 0 and 5 both ask for a chunk in one
        cycle with one shared chunk left, and says who got it: the order
        the write arbiter's pointer gives them."""
        switch, _, _, _ = self.rig()
        switch._inflow[0].clear()
        switch._ingress_occupied = switch._cb_feed = 0
        first = self.feed(switch, 0, written=8, on_hand=0)
        self.feed(switch, 3, written=0, on_hand=8, reserve_all=True)
        fifth = self.feed(switch, 5, written=6, on_hand=1)
        reference = RoundRobinArbiter(switch.num_ports)
        switch._write_arbiter._next = reference._next = pointer
        pool = switch.pool

        def race(now, asking):
            first.received += 1
            fifth.received += 1
            pool.try_take(9, pool.free_shared - 1, now - 1)
            charges = {0: first.stored.charge, 5: fifth.stored.charge}
            before = {port: charges[port].shared for port in charges}
            switch._write_central_buffer(now)
            assert pool.free_shared == 0
            (winner,) = (
                port for port in charges
                if charges[port].shared == before[port] + 1
            )
            order = reference.grant_up_to(asking, 16)
            assert order.index(winner) < order.index(5 - winner)
            return winner

        return switch, fifth, reference, race

    def test_an_input_inside_a_write_run_keeps_its_place_in_the_rotation(
        self,
    ):
        # the per-flit switch grants input 3 on every cycle of its run,
        # which is what leaves the pointer behind it, before 5
        switch, fifth, reference, race = self.allocation_race(pointer=4)
        switch._write_central_buffer(self.NOW)
        assert switch._inflow[3][0].stored.last_write == self.NOW + 7
        reference.grant_up_to([3, 5], 16)
        fifth.received += 1
        switch._write_central_buffer(self.NOW + 1)
        reference.grant_up_to([3, 5], 16)
        assert race(self.NOW + 2, [0, 3, 5]) == 5

    def test_the_write_pointer_moves_through_the_cycles_slept(self):
        # 5 has nothing more, 3 is inside its run: the switch sleeps to
        # the run's end, through cycles in which 3 asked alone
        switch, fifth, reference, race = self.allocation_race(pointer=0)
        fifth.stored.write_flit()  # (so that its next flit needs a chunk)
        fifth.consumed += 1
        fifth.received += 1
        switch._write_central_buffer(self.NOW)
        reference.grant_up_to([3, 5], 16)
        assert switch._write_standing == 1 << 3
        for _ in range(self.NOW + 1, self.NOW + 8):
            reference.grant_up_to([3], 16)
        assert race(self.NOW + 8, [0, 5]) == 5

    # -- the read half ----------------------------------------------------
    def test_a_reader_behind_a_dated_write_reaches_it_and_no_further(self):
        switch, ingress, stored, spans = self.rig(received=3)
        switch.in_links[0].send_span(self.NOW, ingress.worm, 3, 5)
        cursor = self.reader(switch, stored, 1)
        switch._write_central_buffer(self.NOW)
        switch._drive_outputs(self.NOW)
        # flit j is written at NOW + j and read at NOW + j
        assert self.sent(switch, spans, 1) == [(self.NOW, 0, 8)]
        assert cursor.read == stored.flits_written == 8
        # inside its run the output is left alone
        switch._drive_outputs(self.NOW + 3)
        assert self.sent(switch, spans, 1) == [(self.NOW, 0, 8)]
        assert switch._inside_runs(self.NOW + 3)

    def test_a_reader_not_yet_readable_commits_nothing(self):
        switch, ingress, stored, spans = self.rig(received=8)
        self.written(stored, 4)
        ingress.consumed = 4
        cursor = self.reader(switch, stored, 1, read=6)
        switch._write_central_buffer(self.NOW)  # flits 4..7 at NOW..NOW+3
        assert stored.written_by(self.NOW + 1) == 6
        for cycle in (self.NOW, self.NOW + 1):
            switch._drive_outputs(cycle)
            assert not self.sent(switch, spans, 1) and cursor.read == 6
        switch._drive_outputs(self.NOW + 2)
        assert self.sent(switch, spans, 1) == [(self.NOW + 2, 6, 2)]

    def test_a_read_run_stops_at_the_credit_window(self):
        switch, _, stored, spans = self.rig(received=30)
        self.written(stored, 30)
        self.reader(switch, stored, 1)
        link = switch.out_links[1]
        link._unthrottled, link._credits = False, 3
        link.return_credit_ramp(self.NOW + 1, 2)  # mature NOW+2, NOW+3
        switch._drive_outputs(self.NOW)
        assert self.sent(switch, spans, 1) == [(self.NOW, 0, 5)]
        # toward a sink that never throttles: all that is written
        self.reader(switch, stored, 2)
        switch._drive_outputs(self.NOW)
        assert self.sent(switch, spans, 2) == [(self.NOW, 0, 30)]

    def test_a_chunk_goes_back_when_the_last_branch_crosses_its_end(self):
        switch, _, stored, spans = self.rig(received=30)
        self.written(stored, 30)
        pool = switch.pool
        held = pool.used_chunks
        # (the slow branch registers its crossing first: the later date
        # must survive the earlier one that follows)
        self.reader(switch, stored, 1, read=2)
        self.reader(switch, stored, 2, read=5)
        link = switch.out_links[1]
        link._unthrottled, link._credits = False, 7
        switch._drive_outputs(self.NOW)
        # output 2 crosses flit 8 at NOW+2, 16 at NOW+10, 24 at NOW+18;
        # output 1, behind it, crosses flit 8 at NOW+5 and stops at 9
        assert self.sent(switch, spans, 2) == [(self.NOW, 5, 25)]
        assert self.sent(switch, spans, 1) == [(self.NOW, 2, 7)]
        assert pool.next_release() == self.NOW + 5
        assert len(pool._releases) == 1  # once, at the later crossing
        # still held at the end of NOW+4, gone at the end of NOW+5 ...
        assert pool.at(self.NOW + 4).used_chunks == held
        assert pool.at(self.NOW + 5).used_chunks == held - 1
        assert pool.used_chunks == held  # ... and nothing was applied
        # ... which allocation sees one cycle after and not before
        spare = pool.free_shared + pool.free_quota[3]
        assert pool.try_take(3, spare + 1, self.NOW + 5) is None
        assert pool.try_take(3, spare + 1, self.NOW + 6) is not None
        assert not pool._releases
        assert pool.occupancy.peak == held + spare
        # the slow branch goes on alone: the chunks go back as it passes
        stored.crossed(16, self.NOW + 30, self.NOW + 12)
        stored.crossed(24, self.NOW + 38, self.NOW + 12)
        assert [date for date, _, _ in pool._releases] == [
            self.NOW + 30, self.NOW + 38
        ]

    def test_the_last_tail_frees_the_last_chunk_and_leaves_nothing(self):
        switch, ingress, stored, spans = self.rig(received=self.SIZE)
        self.written(stored, self.SIZE)
        switch._inflow[0].clear()
        switch._ingress_occupied = switch._cb_feed = 0
        pool = switch.pool
        fast = self.reader(switch, stored, 1)
        slow = self.reader(switch, stored, 2)
        switch._drive_outputs(self.NOW)
        assert fast.read == slow.read == self.SIZE - 1
        assert [date for date, _, _ in pool._releases] == [
            self.NOW + 7 + 8 * j for j in range(4)
        ]
        end = self.NOW + self.SIZE - 1
        for out_port in (1, 2):  # (no NI is ticking to return credits)
            switch.out_links[out_port]._credits = 1
        switch._drive_outputs(end)  # both tails, one flit each
        for out_port in (1, 2):
            link = switch.out_links[out_port]
            assert self.flits[link.name][-1] == (end, 0, self.SIZE - 1)
        assert stored.finished and not pool._releases
        assert pool.used_chunks == 0 and pool.free_chunks == (
            pool.capacity_chunks
        )
        switch.sim.now = end
        assert switch.idle()
