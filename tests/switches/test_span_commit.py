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

import sys
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
from repro.switches.base import RELEASE, TAIL, TAKE, DatedEffects, committed_run
from repro.switches.central_buffer import (
    _BypassFeed,
    _Ingress,
    _IngressState,
)
from repro.switches.arbiter import RoundRobinArbiter
from repro.switches.chunks import StoredPacket
from repro.switches.input_buffer import InputBufferSwitch, _Branch
from repro.switches.input_buffer import _Ingress as _BufferIngress
from repro.switches.link import Link

from tests.differential import (
    CB,
    IB,
    ROW,
    TIMELINE_ROWS,
    TimelineProbe,
    _short_pool,
    flavour,
    log_sends,
    log_takes,
    sweep,
    timeline,
)
from tests.switches.test_central_buffer import (
    one_switch_config,
    run_to_quiescence,
    schedule_multicast,
    schedule_unicast,
)
from tests.switches.test_link_spans import make_link, make_worm
from tests.switches.test_input_buffer import (
    one_switch_config as one_buffer_switch_config,
)


def dated(switch, phase):
    """The switch's queued effects of one phase, as ``(date, subject,
    count)``, in queue order."""
    effects = switch._dated
    lane = {TAKE: effects.takes, RELEASE: effects.releases, TAIL: effects.tails}
    return [(date, subject, count) for date, _, subject, count in lane[phase]]


def queued(switch):
    """Every dated effect still queued on ``switch``, lane by lane."""
    effects = switch._dated
    return effects.takes + effects.releases + effects.tails


def _bypass_run(ingress, in_link, out_link, now):
    """The run a central-buffer bypass feed would commit: its call into
    the run computation both architectures share."""
    return committed_run(
        ingress.received - ingress.consumed,
        ingress.worm.size_flits - ingress.consumed, now,
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


def one_switch_run(payloads=(16, 40), **overrides):
    """Unicasts through one 8-port switch; returns (network, span calls
    made by the switch, flits it sent per out-link)."""
    network = build_network(one_switch_config(**overrides))
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
    def test_bypass_flits_leave_in_runs_the_tail_included(self):
        network, calls, flits = one_switch_run()
        assert calls and all(count >= 2 for _, _, _, count in calls)
        # far fewer send calls than flits: that is the point
        assert 3 * len(calls) < sum(len(sent) for sent in flits.values())
        (switch,) = network.switches
        assert switch.idle()
        # the NI fills a FIFO of 8 per span, so a tail of 17 or 41 flits
        # lands alone and leaves alone; from a FIFO that holds the whole
        # worm it leaves in the worm's one run
        _, calls, _ = one_switch_run(input_fifo_depth=64)
        assert sorted(call[2:] for call in calls) == [(0, 17), (0, 41)]

    def test_runs_stop_at_the_credit_window(self):
        posts = ((0, 0, 7, 16), (3, 1, 6, 40))  # 17 and 41 flits
        # toward a switch the window is its input FIFO — credits on hand
        # plus the returns already travelling back — never more: what
        # moves a unicast there is no drain
        config = SimulationConfig(
            num_hosts=16, sw_send_overhead=0, sw_recv_overhead=0
        )
        between, _ = span_counts(config, ((0, 0, 15, 40), (3, 5, 10, 40)))
        assert max(between) == config.input_fifo_depth
        # a host's NI hands each credit back as the flit lands: a depth
        # that covers the credit round trip never throttles (the sink
        # rule), so a bypass feed toward it is a drain of its own input
        # FIFO, and the NI sends what the FIFO's 8 credits leave of the
        # worm in one span, which the feed forwards in one run
        config = one_switch_config()
        assert config.ni_rx_depth >= 2 * config.link_latency
        _, to_host = span_counts(config, posts)
        assert sorted(to_host) == [8, 8, 9, 33]
        # a shallower NI does throttle: the window is its depth, never
        # more, and the feed is no drain
        config = one_switch_config(link_latency=2, ni_rx_depth=3)
        _, to_host = span_counts(config, posts)
        assert max(to_host) == config.ni_rx_depth

    def test_an_input_buffer_branch_sends_a_whole_worm_in_one_call(self):
        # the input buffer holds a whole worm and the NI injects it as one
        # span, so toward a host that never throttles nothing stops a run
        posts = ((0, 0, 7, 16), (3, 1, 6, 40))  # 17 and 41 flits
        _, to_host = span_counts(one_buffer_switch_config(), posts)
        assert sorted(to_host) == [17, 41]
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
    write_run, add = StoredPacket.write_run, DatedEffects.add

    def logged_write(stored, now, count):
        log.append(("write_run", now, count))
        write_run(stored, now, count)

    def logged_add(dated, date, phase, subject, count):
        if phase == RELEASE:
            log.append(("dated_release", count, date))
        add(dated, date, phase, subject, count)

    StoredPacket.write_run = logged_write
    DatedEffects.add = logged_add
    try:
        yield log
    finally:
        StoredPacket.write_run = write_run
        DatedEffects.add = add


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
            {"write_run", "dated_release"} if architecture is CB else set()
        )


class TestSleepRule:
    """The cycles a switch is awake on, exactly: an arrival is an event
    once per send, dated at the routing cycle for a head record that
    lands in a clear input, taking a record is not a stir, and what its
    later members allow is dated."""

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
        # the NI sends what the FIFO's credits admit, 8 flits at cycle 6;
        # the bypass feed toward the NI is a drain, so the NI's next span
        # is the other 17 flits at once
        assert ticks == [
            0,   # registration
            9,   # the header landed at 7, with its record, in an empty
                 # FIFO: woken at the expiry of the routing delay, the
                 # record is taken and the worm bypasses, a run of 8
                 # (cycles 9-16)
            17,  # run over: the NI's second span, landed at 15 inside
                 # the run and so no wake of its own, is taken — the
                 # other 17, the tail at 33, and nothing waits on its
                 # release
        ]

    def test_one_unicast_through_an_idle_input_buffer_switch(self):
        config = one_buffer_switch_config()
        assert (config.link_latency, config.routing_delay) == (1, 2)
        network = build_network(config)
        _, ticks = self.ticked(network)
        schedule_unicast(network, 5, 0, 7, 24)
        run_to_quiescence(network)
        # the buffer holds the worm and the NI sends it as one record,
        # whose header lands at 7 in an empty buffer: one tick, at the
        # routing expiry (a run of all 25, the tail included) — and
        # nothing waits on the release at 34
        assert ticks == [0, 9]
        (switch,) = network.switches
        assert switch.idle() and queued(switch)

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
        # the front worm, landed at 7 in an empty FIFO, is taken and
        # routed at 9 and refused a credit that never comes; the record
        # behind it lands over cycles 22-29 behind a worm that stays, so
        # it wakes the switch at its landing and is taken at 22
        assert ticks == [0, 9, 22]
        front, behind = switch._inflow[0]
        assert (behind.received, behind.last_landing) == (8, 29)
        assert out_link._credit_wanted and not out_link.flits_sent


    @pytest.mark.parametrize("config", (
        one_switch_config(), one_buffer_switch_config(),
    ), ids=("cb", "ib"))
    def test_a_head_record_in_a_clear_input_wakes_the_switch_to_route_it(
        self, config
    ):
        # a header of three flits sent whole into an empty input: it
        # lands at 6 and completes at 8, and the routing delay runs to
        # 10.  Production is woken then, takes the record and routes it
        # (a run of all 8, the tail at 17; nothing waits on its
        # release).  The per-flit reference stamps a header on the tick
        # that takes its last flit, so its landing wakes it
        ticks, sends = {}, {}
        for name in ("production", "reference-active"):
            network = build_network(flavour(config, name))
            flits, _ = log_sends(network)
            switch, ticks[name] = self.ticked(network)
            destinations = DestinationSet.single(config.num_hosts, 5)
            message = Message(0, 0, destinations, 5, TrafficClass.UNICAST, 0)
            worm = Worm.root(Packet(0, message, destinations, 3, 5))
            link = switch.in_links[0]
            network.interfaces[5].on_delivery(lambda worm, now: None)
            network.sim.schedule_at(
                5, lambda: link.send_span(5, worm, 0, 8)
            )
            network.sim.run(40)
            (log,) = (
                flits[out.name] for out in switch_out_links(network)
                if flits[out.name]
            )
            sends[name] = log
        assert sends["production"] == sends["reference-active"]
        assert sends["production"][0] == (10, 0, 0)
        assert ticks["production"] == [0, 10]
        assert ticks["reference-active"][:3] == [0, 6, 7]

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
        # routing delay runs to 13, and the run of all 8 (CB: a FIFO of 8
        # already holds it all) carries the tail at 20; nothing waits on
        # its release
        assert ticks == [0, 6, 11, 13]
        assert switch.idle()

    @pytest.mark.parametrize("case", ("bypass", "admitted", "covered"))
    def test_a_body_record_landing_inside_its_movers_run_wakes_nobody(
        self, case
    ):
        # host 1's worm (host 0's for the bypass) lands as the FIFO's 8
        # credits' worth at 7-14, is routed at 9 (10 for the two-flit
        # header of the multicast) and its mover — a bypass feed toward
        # host 7, the writer of a worm admitted for hosts 5-7, or the
        # writer of a unicast queued behind host 0's and covered by its
        # input's quota — moves those 8 as one run and is a drain, so
        # the NI's second record is the rest of the worm, sent at 14.
        # It lands at 15, inside the run: production is not woken then
        # but by the run's own wake, which takes it and moves it all.
        # The per-flit reference ticks at every landing
        posts = {
            "bypass": [(schedule_unicast, 5, 0, 7, 24)],
            "admitted": [(schedule_multicast, 5, 0, (5, 6, 7), 24)],
            "covered": [
                (schedule_unicast, 5, 0, 7, 7),
                (schedule_unicast, 5, 1, 7, 40),
            ],
        }[case]
        mover = 1 if case == "covered" else 0
        ticks, sent, records, held = {}, {}, {}, {}
        for name in ("production", "reference-active"):
            network = build_network(flavour(UNCONTENDED, name))
            flits, spans = log_sends(network)
            switch, ticks[name] = self.ticked(network)
            for schedule, *post in posts:
                schedule(network, *post)
            run_to_quiescence(network)
            sent[name] = {
                link.name: flits[link.name]
                for link in switch_out_links(network)
            }
            records[name] = [
                (now, start, count)
                for now, _, start, count in spans[f"host{mover}->sw0.p{mover}"]
            ]
            held[name] = switch.in_links[mover]._held_through
        assert sent["production"] == sent["reference-active"]
        assert records["production"][1][:2] == (14, 8)
        assert 15 in ticks["reference-active"]
        assert ticks["production"] == {
            "bypass": [0, 9, 17],
            "admitted": [0, 10, 18],
            # the run of host 0's 8 flits ends at 16 and frees output 7
            # for the queued branch: 17 also ends the writer's run
            "covered": [0, 9, 17],
        }[case]
        # the 8 flits' run is the one the landing fell inside; the
        # reference commits no run and holds nothing
        assert held == {
            "production": {"bypass": 16, "admitted": 17, "covered": 16}[case],
            "reference-active": -1,
        }


WHOLE_WORM = {
    "cb": one_switch_config(input_fifo_depth=64),
    "ib": one_buffer_switch_config(),
}


class TestDatedRelease:
    """A run that carries a tail ends the worm's pass at its last cycle:
    the output it frees and the FIFO it pops are free, on the timeline,
    from then on, and in the structures from the switch's next tick,
    which comes at ``t_end + 1`` only if something waits on them.  Both
    one-switch configurations hold a whole worm in an input FIFO, so the
    NI's one record leaves in one run (17 flits, ``t_end`` = 20)."""

    T_END = 20

    @staticmethod
    def both_planes(config, posts):
        """Ticks and per-out-link send logs of production, and the send
        logs of the per-flit reference, for the unicast ``posts``."""
        logs = []
        for name in ("production", "ground-truth"):
            network = build_network(flavour(config, name))
            flits, _ = log_sends(network)
            _, ticks = TestSleepRule.ticked(network)
            for post in posts:
                schedule_unicast(network, *post)
            run_to_quiescence(network)
            links = switch_out_links(network)
            logs.append((ticks, {link.name: flits[link.name] for link in links}))
        (ticks, sent), (_, reference) = logs
        assert sent == reference
        return ticks, {name: log for name, log in sent.items() if log}

    @pytest.mark.parametrize("label", sorted(WHOLE_WORM))
    def test_a_branch_queued_for_the_output_takes_it_the_cycle_after(
        self, label
    ):
        # host 1's worm is routed at 7 to the output host 0's run holds
        ticks, sent = self.both_planes(
            WHOLE_WORM[label], ((0, 0, 7, 16), (3, 1, 7, 16))
        )
        (log,) = sent.values()
        assert log[16] == (self.T_END, 0, 16)
        assert log[17] == (self.T_END + 1, 1, 0)
        assert self.T_END + 1 in ticks

    @pytest.mark.parametrize("label", sorted(WHOLE_WORM))
    def test_a_worm_behind_in_the_fifo_is_routed_the_cycle_after(self, label):
        # host 0's second worm lands behind its first, its header done
        # and its routing delay run by the time the first has left
        ticks, sent = self.both_planes(
            WHOLE_WORM[label], ((0, 0, 7, 16), (0, 0, 6, 16))
        )
        first, second = (sent[name] for name in sorted(sent, reverse=True))
        assert first[-1] == (self.T_END, 0, 16)
        assert second[0] == (self.T_END + 1, 1, 0)
        # the first record lands at 2 in an empty FIFO and is taken at
        # its routing expiry; the second lands at 19 behind the first,
        # whose tail is dated to leave at T_END: the input is clear from
        # the tick that settles that release, which is also the second's
        # routing expiry, so that one tick takes it and routes it
        assert ticks == [0, 4, self.T_END + 1]

    @pytest.mark.parametrize("label", sorted(WHOLE_WORM))
    def test_a_head_landing_after_the_release_wakes_the_switch_to_route_it(
        self, label
    ):
        # host 0's second worm lands at 21, after its first left at
        # T_END, which nothing waits on: the input is clear by then
        # though the release is not settled, so the one tick is the
        # routing expiry, which settles it, takes the record and routes
        config = WHOLE_WORM[label]
        ticks, sent = self.both_planes(config, ((0, 0, 7, 16), (19, 0, 6, 16)))
        first, second = (sent[name] for name in sorted(sent, reverse=True))
        assert first[-1] == (self.T_END, 0, 16)
        assert second[0] == (self.T_END + 3, 1, 0)
        assert ticks == [0, 4, self.T_END + 3]
        # one that lands at T_END itself still finds the first worm in
        # the FIFO, until the tick after: that is before its routing
        # expiry, which is its one wake
        ticks, sent = self.both_planes(config, ((0, 0, 7, 16), (18, 0, 6, 16)))
        first, second = (sent[name] for name in sorted(sent, reverse=True))
        assert second[0] == (self.T_END + 2, 1, 0)
        assert ticks == [0, 4, self.T_END + 2]

    def test_a_head_behind_a_worm_dated_to_leave_wakes_at_the_release(self):
        # host 1's worm is routed at 4 and host 0's first at 6, which
        # waits in its input buffer for output 7 until host 1's 41 flits
        # have left, and at 45 leaves in one run whose
        # tail is dated 61.  Its second worm, for host 6, is sent at 46
        # and lands at 47, behind the first: routable at 49 but the
        # input's front only from the tick that settles the release, 62,
        # its one wake — neither the landing nor the release cycle
        ticks, sent = self.both_planes(
            one_buffer_switch_config(),
            ((0, 1, 7, 40), (2, 0, 7, 16), (45, 0, 6, 8)),
        )
        assert sent["sw0.p7->host7"][-1] == (61, 1, 16)
        assert sent["sw0.p6->host6"][0] == (62, 2, 0)
        assert ticks == [0, 4, 6, 45, 62]

    @pytest.mark.parametrize("label", sorted(WHOLE_WORM))
    def test_nothing_waiting_means_no_tick_for_the_release(self, label):
        config = WHOLE_WORM[label]
        network = build_network(config)
        switch, ticks = TestSleepRule.ticked(network)
        rows = []

        class Probe:
            next_cycle = 0

            @staticmethod
            def sample(cycle):
                Probe.next_cycle = cycle + 1
                occupancy = (
                    switch.buffer_occupancy if label == "ib"
                    else switch.fifo_occupancy
                )(0)
                rows.append((
                    cycle, occupancy, switch.idle(), network.quiescent(),
                    len(dated(switch, TAIL)),
                ))

        network.sim.add_probe(Probe)
        schedule_unicast(network, 0, 0, 7, 16)
        run_to_quiescence(network)
        network.sim.run(10)
        # the header lands at 2 in an empty FIFO: one tick, at the
        # routing expiry, and its run of 17: nothing after
        assert ticks == [0, 4]
        # the tail leaves at T_END: from then the switch is idle — the
        # network once it has been delivered — with the release pending
        by_cycle = {row[0]: row[1:] for row in rows}
        assert by_cycle[self.T_END - 1] == (1, False, False, 1)
        assert by_cycle[self.T_END] == (0, True, False, 1)
        assert by_cycle[self.T_END + 3] == (0, True, True, 1)
        assert max(by_cycle) > self.T_END + 8
        # the next tick settles it, whenever that is
        switch.tick(network.sim.now)
        assert not queued(switch) and not switch._inflow[0]
        assert switch._egress_busy == switch._ingress_occupied == 0


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

    def test_the_tail_is_a_member(self):
        worm, ingress, in_link, out_link = self.rig(
            size=6, received=6
        )
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 6
        # look-ahead reaches it too, and nothing past it
        worm, ingress, in_link, out_link = self.rig(size=6)
        in_link.send_span(self.NOW, worm, 3, 3)
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 6

    def test_the_tail_alone_is_not_a_run(self):
        _, ingress, in_link, out_link = self.rig(
            size=6, received=6, consumed=5
        )
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 0
        # one body flit before it is
        ingress.consumed = 4
        assert _bypass_run(ingress, in_link, out_link, self.NOW) == 2

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
            link.send_granted = (
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

    def test_a_run_writes_the_tail_and_dates_the_pop(self):
        switch, ingress, stored, _ = self.rig(received=self.SIZE)
        ingress.consumed = self.SIZE - 5
        self.written(stored, self.SIZE - 5)
        switch._write_central_buffer(self.NOW)
        end = self.NOW + 4
        assert (stored.flits_written, stored.last_write) == (self.SIZE, end)
        # the worm leaves its FIFO with the tail's write, on the timeline
        # at once and in the structures at the next tick
        assert ingress.leaves == end
        assert not ingress.gone_by(end - 1) and ingress.gone_by(end)
        assert queued(switch) == [(end, TAIL, 0, 1)]
        switch.settle(end)
        assert switch._inflow[0] and switch._cb_feed
        switch.settle(end + 1)
        assert not switch._inflow[0] and not switch._cb_feed
        assert not queued(switch)

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
        pool.dated.add(self.NOW + 3, RELEASE, hog, 1)
        assert switch._blocked_wake(self.NOW) == self.NOW + 4
        # (each tick settles what is dated before it, then writes)
        for cycle, written in ((self.NOW + 3, 8), (self.NOW + 4, 12)):
            switch.settle(cycle)
            switch._write_central_buffer(cycle)
            assert stored.flits_written == written  # at 12, as a run

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

    def test_an_input_whose_run_ends_with_its_tail_stops_asking(self):
        # 3's run writes its tail at NOW + 7 and 6's runs to NOW + 23:
        # the switch sleeps through cycles in which 3 and 6 asked, then
        # 6 alone, and the pointer must have followed both sets
        switch, _, _, _ = self.rig()
        switch._inflow[0].clear()
        switch._ingress_occupied = switch._cb_feed = 0
        first = self.feed(switch, 0, written=8, on_hand=0)
        third = self.feed(switch, 3, written=32, on_hand=8, reserve_all=True)
        fifth = self.feed(switch, 5, written=7, on_hand=1)
        self.feed(switch, 6, written=0, on_hand=24, reserve_all=True)
        reference = RoundRobinArbiter(switch.num_ports)
        switch._write_arbiter._next = reference._next = 4
        switch._write_central_buffer(self.NOW)
        reference.grant_up_to([3, 5, 6], 16)
        assert third.leaves == self.NOW + 7
        for cycle in range(self.NOW + 1, self.NOW + 12):
            reference.grant_up_to([3, 6] if cycle <= self.NOW + 7 else [6], 16)
        race = self.NOW + 12
        switch.settle(race)
        assert not switch._inflow[3]
        # 0 and 5 both need a chunk, and one shared chunk is left
        first.received += 1
        fifth.received += 1
        pool = switch.pool
        pool.try_take(9, pool.free_shared - 1, race - 1)
        shared = first.stored.charge.shared
        switch._write_central_buffer(race)
        assert pool.free_shared == 0
        assert reference.grant_up_to([0, 5, 6], 16)[0] == 0
        assert first.stored.charge.shared == shared + 1

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
        # once, at the later crossing
        assert dated(switch, RELEASE) == [(self.NOW + 5, stored.charge, 1)]
        # still held at the end of NOW+4, gone at the end of NOW+5 ...
        assert pool.at(self.NOW + 4).used_chunks == held
        assert pool.at(self.NOW + 5).used_chunks == held - 1
        assert pool.used_chunks == held  # ... and nothing was applied
        # ... which allocation sees one cycle after and not before
        spare = pool.free_shared + pool.free_quota[3]
        switch.settle(self.NOW + 5)
        assert pool.try_take(3, spare + 1, self.NOW + 5) is None
        switch.settle(self.NOW + 6)
        assert pool.try_take(3, spare + 1, self.NOW + 6) is not None
        assert not dated(switch, RELEASE)
        assert pool.occupancy.peak == held + spare
        # the slow branch goes on alone: the chunks go back as it passes
        stored.crossed(16, self.NOW + 30, self.NOW + 12)
        stored.crossed(24, self.NOW + 38, self.NOW + 12)
        assert [date for date, _, _ in dated(switch, RELEASE)] == [
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
        # both read it all in one run each, the tails included
        assert fast.read == slow.read == self.SIZE
        end = self.NOW + self.SIZE - 1
        for out_port in (1, 2):
            link = switch.out_links[out_port]
            assert self.flits[link.name][-1] == (end, 0, self.SIZE - 1)
        # every chunk goes back at its last crossing, the last at the
        # tails' cycle; the outputs are free from then on too
        assert [date for date, _, _ in dated(switch, RELEASE)] == [
            self.NOW + 7 + 8 * j for j in range(5)
        ]
        assert dated(switch, TAIL) == [(end, 1 << 1, 0), (end, 1 << 2, 0)]
        assert stored.finished
        switch.sim.now = end - 1
        assert not switch.idle()
        switch.sim.now = end
        assert switch.idle()
        assert pool.at(end).used_chunks == 0
        # the next tick settles both: nothing is left anywhere
        switch.settle(end + 1)
        assert switch._out_current[1] is switch._out_current[2] is None
        assert not switch._egress_busy
        assert pool.try_take(0, 1, end + 1) is not None
        assert not queued(switch)


@contextmanager
def log_drains():
    """Every drain declared inside the block, as ``(link, packet id,
    first flit whose return the link dates)``."""
    log = []
    declare = Link.drain

    def logged(link, worm, taken, after):
        first = declare(link, worm, taken, after)
        log.append((link.name, worm.packet.packet_id, first))
        return first

    Link.drain = logged
    try:
        yield log
    finally:
        Link.drain = declare


def drained_run(config, posts):
    """``posts`` — ``(schedule, cycle, source, destination(s), payload)``
    — on production and on the per-flit reference, whose every link
    must carry the same flits on the same cycles and whose every
    cycle's credits and occupancy must agree (``TimelineProbe``).
    Returns production's span calls per link, as ``(cycle, packet,
    start, count)``, the drains it declared, and the lowest credit
    counter any sender held at the end of a cycle."""
    planes = []
    for name in ("production", "ground-truth"):
        network = build_network(flavour(config, name))
        flits, spans = log_sends(network)
        probe = TimelineProbe(network)
        network.sim.add_probe(probe)
        lowest = LowestCredit(network)
        network.sim.add_probe(lowest)
        for schedule, *post in posts:
            schedule(network, *post)
        with log_drains() as drains:
            run_to_quiescence(network)
        planes.append((flits, probe.rows, spans, drains, lowest.credits))
    (flits, rows, spans, drains, lowest), reference = planes
    assert (flits, rows) == reference[:2]
    assert not reference[3]  # the reference declares no drain
    calls = {
        name: [(now, worm.packet.packet_id, start, count)
               for now, worm, start, count in made]
        for name, made in spans.items() if made
    }
    return calls, drains, lowest


class LowestCredit:
    """Kernel probe: the lowest credit counter any sender held at the
    end of a cycle (0 if none went below)."""

    def __init__(self, network):
        self.links = network.links
        self.credits = 0
        self.next_cycle = 0

    def sample(self, cycle):
        self.next_cycle = cycle + 1
        self.credits = min(
            self.credits, *(link._credits for link in self.links)
        )


#: the one-switch system (16 ports, 8 to hosts) with buffer bandwidth
#: for every port's ask each cycle
UNCONTENDED = one_switch_config(cb_write_bandwidth=16, cb_read_bandwidth=16)


class TestDrain:
    """A receiver that takes each flit of a worm as it lands through to
    its tail dates the credit returns of its later flits, and its sender
    is not held to the FIFO's window for that worm (``Link.drain``): the
    central-buffer writer of an admitted multidestination worm or of a
    unicast its input's quota covers, and a bypass feed toward a host
    that never throttles.  Every case is held to the per-flit reference,
    which declares none and dates no take."""

    def test_an_admitted_worm_crosses_each_hop_in_two_records(self):
        # degree 16 across 64 hosts, alone: at each hop the sender has
        # the FIFO's 8 credits, and once the worm is admitted — or, at a
        # leaf switch where it is a unicast, bypasses toward its host —
        # the other 61 flits in one span
        config = SimulationConfig(
            num_hosts=64, sw_send_overhead=0, sw_recv_overhead=0
        )
        calls, drains, lowest = drained_run(
            config, [(schedule_multicast, 5, 0, range(1, 64, 4), 64)]
        )
        # three hops up to the turnaround, 4 down from it, 16 into the
        # leaf switches and 16 to the hosts
        assert len(calls) == 3 + 4 + 16 + 16
        for made in calls.values():
            assert [call[2:] for call in made] == [(0, 8), (8, 61)]
        # declared on every link into a switch, by its first mover
        into_switches = {name for name in calls if "->sw" in name}
        assert {link for link, _, _ in drains} == into_switches
        assert len(drains) == len(into_switches)
        assert {first for _, _, first in drains} == {8}
        # and credits balanced every cycle while senders had borrowed
        assert lowest < 0

    def test_no_drain_where_the_write_bandwidth_is_contended(self):
        # 16 ports share 8 writes a cycle: no writer is granted every
        # cycle, so the NI is held to the FIFO's window
        config = one_switch_config()
        assert config.cb_write_bandwidth < 16
        calls, drains, _ = drained_run(
            config, [(schedule_multicast, 5, 0, (2, 3, 4), 48)]
        )
        assert not drains
        assert max(count for *_, count in calls["host0->sw0.p0"]) == 8

    def test_a_unicast_its_input_quota_covers_is_a_drain(self):
        # two unicasts for host 7 at once: one bypasses toward it, the
        # other is queued behind it and written into the buffer, whose
        # fresh quota for that input holds all 6 chunks — no take can be
        # refused, so both movers are drains
        with log_buffer_runs() as buffered:
            calls, drains, _ = drained_run(UNCONTENDED, [
                (schedule_unicast, 5, 0, 7, 40),
                (schedule_unicast, 5, 1, 7, 40),
            ])
        assert sorted(packet for _, packet, _ in drains) == [0, 1]
        for source in ("host0->sw0.p0", "host1->sw0.p1"):
            assert [call[2:] for call in calls[source]] == [(0, 8), (8, 33)]
        # the queued worm is written as the FIFO's 8 flits, then one run
        # from its second chunk to its tail, its 4 later chunks taken on
        # the pool's timeline
        writes = [entry[1:] for entry in buffered if entry[0] == "write_run"]
        assert writes == [(9, 8), (17, 33)]

    def test_no_drain_for_a_unicast_its_quota_does_not_cover(self):
        # a pool at its legal minimum, no shared region: host 0's first
        # unicast waits in the buffer behind host 1's bypass and holds 2
        # of its input's 5 chunks when the second, of 5 chunks, is
        # written — its last take waits for the first's chunks to go
        # back, so that writer is none and its sends stay in the FIFO's
        # window
        config = UNCONTENDED.derived(**_short_pool(num_hosts=8, arity=8))
        calls, drains, _ = drained_run(config, [
            (schedule_unicast, 5, 1, 7, 32),
            (schedule_unicast, 6, 0, 7, 8), (schedule_unicast, 6, 0, 7, 32),
        ])
        assert sorted(packet for _, packet, _ in drains) == [0, 1]
        second = [call for call in calls["host0->sw0.p0"] if call[1] == 2]
        assert max(count for *_, count in second) == 8
        assert len(second) > 2

    def test_two_inputs_that_open_chunks_on_one_cycle(self):
        # two covered unicasts queued for host 7 behind host 2's bypass,
        # host 1's posted 8 cycles before host 0's: their chunk
        # boundaries fall on the same cycles.  Host 1's run dates its
        # takes first; host 0's runs stop short of each cycle one holds
        # and take that chunk at their own turn, which the write arbiter
        # gives host 0 first.  With 6 shared chunks the last one goes at
        # such a cycle, to whichever input takes first: every cycle's
        # pool row is held to the reference's
        config = UNCONTENDED.derived(**_short_pool(6, num_hosts=8, arity=8))
        with log_buffer_runs() as buffered:
            _, drains, _ = drained_run(config, [
                (schedule_unicast, 4, 2, 7, 32),
                (schedule_unicast, 5, 1, 7, 32),
                (schedule_unicast, 13, 0, 7, 32),
            ])
        assert sorted(packet for _, packet, _ in drains) == [0, 1, 2]
        writes = [entry[1:] for entry in buffered if entry[0] == "write_run"]
        # host 1: 8, then 25 to its tail; host 0: 8, then cut at 33 and
        # 41, where host 1's takes are dated
        assert writes == [(9, 8), (17, 8), (17, 25), (25, 8), (33, 8), (41, 9)]

    def test_no_drain_window_where_the_lag_exceeds_the_credits(self):
        # the smallest FIFO, on links of latency 3: it is grown to hold a
        # header and 2 more flits, 4, and a return comes back 6 cycles
        # after its flit at best, so the credits never cover the lag —
        # drains are declared, and every span into a switch stays within
        # the FIFO's window
        config = UNCONTENDED.derived(input_fifo_depth=2, link_latency=3)
        depth = config.effective_input_fifo_depth()
        assert depth < 2 * config.link_latency
        calls, drains, _ = drained_run(
            config, [(schedule_multicast, 5, 0, (2, 3, 4), 48)]
        )
        assert drains
        into_switch = [
            count for name, made in calls.items() if "->sw" in name
            for *_, count in made
        ]
        assert max(into_switch) == depth

    @pytest.mark.parametrize("dense", [False, True])
    def test_a_lagged_stream_matches_every_cycle(self, runs, dense):
        fast, _ = assert_same_timeline(
            runs, ROW["mcast-cb-lagged"], dense, consumers=2, seed=3
        )
        write_runs, read_runs = fast.cb_runs
        assert write_runs and read_runs

    def test_the_drain_ends_at_its_tail(self):
        # a worm of 20 on a bare link: 8 flits, taken at 1 and consumed
        # one a cycle from there; the receiver drains the rest
        link = make_link(depth=8)
        worm, behind = make_worm(size=20), make_worm(size=20, packet_id=1)
        link.send_span(0, worm, 0, 8)
        assert link.receive_span(1) == (worm, 0, 8)
        link.return_credit_ramp(1, 8)  # matures 2 .. 9
        assert link.drain(worm, 8, 9) == 8
        # at 8 seven credits are back and the eighth comes at 9, which
        # covers a lag of 2: the rest of the worm, but no other worm
        assert link.sendable_span(8, worm) == sys.maxsize
        assert link.sendable_span(8, behind) == link.sendable_span(8) == 8
        link.send_span(8, worm, 8, 12)
        # flit 8 lands at 9, is consumed then and its slot returns at 10
        assert link.return_maturities()[-12:] == list(range(10, 22))
        assert link._drain is None
        link.send_span(20, behind, 0, 1)
        assert link.sendable_span(21, behind) < sys.maxsize

    def test_a_drain_counts_the_records_still_on_the_link(self):
        # flits 4..7 were sent before the receiver declared itself: their
        # slots are the receiver's to return, and they land 7 .. 10
        link = make_link(depth=8)
        worm = make_worm(size=20)
        link.send_span(0, worm, 0, 4)
        link.send_span(6, worm, 4, 4)
        assert link.receive_span(1) == (worm, 0, 4)
        assert link.drain(worm, 4, 5) == 8
        assert link._drain_next == 11
        # with the tail already on the link there is nothing to drain
        other = make_worm(size=8, packet_id=1)
        link = make_link(depth=8)
        link.send_span(0, other, 0, 8)
        assert link.drain(other, 0, 1) == 8 and link._drain is None
