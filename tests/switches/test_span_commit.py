"""Committed runs are the per-flit reference, flit for flit.

The central-buffer switch commits a run of bypass flits in one
``send_span`` and sleeps through it (``repro.switches.central_buffer``),
the input-buffer switch does the same for the branches of a front worm
(``repro.switches.input_buffer``), the NI for a span record on its
ejection link (``repro.host.interface``), and credits wake their sender
only on demand (``repro.switches.link``).  None of it may move a single
flit by a single cycle.  The sweep below runs the scenarios of
``test_port_activity``, and the ledger's multicast stream, on the
production flavour and on the dense-kernel/object-flit reference and
compares, per link, the log of every flit sent ``(cycle, packet, index)``
and, after every cycle, each link's credit accounting, each input
buffer's occupancy and each NI's ejection state — the introspection must
keep the reference timeline while a run is ahead of it — plus credit
conservation and the two FIFO-front masks on the way.  The unit cases
pin where a run must stop.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import MulticastScheme
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.profile.kernel_profiler import KernelProfiler
from repro.obs.registry import MetricsRegistry
from repro.routing.base import UpPortPolicy
from repro.sim.trace import Tracer
from repro.switches.base import committed_run
from repro.switches.central_buffer import (
    CentralBufferSwitch,
    _Ingress,
    _IngressState,
)
from repro.switches.input_buffer import InputBufferSwitch, _Branch
from repro.switches.input_buffer import _Ingress as _BufferIngress
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import RandomMulticastStream
from repro.traffic.unicast import UniformRandomUnicast

from tests.switches.test_central_buffer import (
    one_switch_config,
    run_to_quiescence,
    schedule_unicast,
)
from tests.switches.test_link_spans import make_link, make_worm
from tests.switches.test_input_buffer import (
    one_switch_config as one_buffer_switch_config,
)
from tests.switches.test_port_activity import CB, IB, SCENARIOS, mask_of


def _ledger_stream():
    """The ledger's ``mcast-ib-64`` traffic, cut short: degree-16 worms
    of 64 flits at a rate that saturates the ejection links, so branches
    queue for busy outputs while their siblings run ahead."""
    return RandomMulticastStream(
        ops_per_host_per_kilocycle=1.0, degree=16, payload_flits=64,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=100, measure_cycles=400,
    )


LEDGER_STREAM = ("mcast-ib-64", IB, {"num_hosts": 64}, _ledger_stream)
SCENARIOS = SCENARIOS + (LEDGER_STREAM,)


def _bypass_run(ingress, in_link, out_link, now):
    """The run a central-buffer bypass feed would commit: its call into
    the run computation both architectures share."""
    return committed_run(
        ingress.received, ingress.consumed, ingress.worm.size_flits,
        ingress.worm, in_link, out_link, now,
    )


def log_sends(network, calls=None):
    """Per link, every flit sent as ``(cycle, packet id, index)`` — the
    nominal send cycle for members of a span — and every span call;
    into ``calls``, every send call as ``(link, cycle, packet id, start,
    count)``, in the order made."""
    flits, spans = {}, {}
    if calls is None:
        calls = []
    for link in network.links:
        sent = flits[link.name] = []
        committed = spans[link.name] = []

        def single(send, _sent=sent, _name=link.name):
            def logged(now, worm, index):
                calls.append((_name, now, worm.packet.packet_id, index, 1))
                _sent.append((now, worm.packet.packet_id, index))
                send(now, worm, index)

            return logged

        def span(now, worm, start, count, _send=link.send_span,
                 _sent=sent, _calls=committed, _name=link.name):
            calls.append((_name, now, worm.packet.packet_id, start, count))
            _calls.append((now, worm, start, count))
            _sent.extend(
                (now + j, worm.packet.packet_id, start + j)
                for j in range(count)
            )
            _send(now, worm, start, count)

        link.send_packed = single(link.send_packed)
        link.send_granted = single(link.send_granted)
        link.send_span = span
    return flits, spans


def front_truth(switch):
    """(route_pending, cb_feed) recomputed from the FIFO-front worms."""
    fronts = [inflow[0].state if inflow else None for inflow in switch._inflow]
    return (
        mask_of(
            state in (_IngressState.ROUTE_WAIT, _IngressState.ADMIT_WAIT)
            for state in fronts
        ),
        mask_of(state is _IngressState.STREAM_CB for state in fronts),
    )


@contextmanager
def end_of_cycle(sim):
    """NI introspection is what calendar events and ``run_until``
    predicates see, and those run before the ticks: the state as of the
    end of cycle ``sim.now - 1``.  A probe runs after the ticks, so it
    reads the end of *its* cycle from the start of the next."""
    sim.now += 1
    try:
        yield
    finally:
        sim.now -= 1


class TimelineProbe:
    """Kernel probe: after each cycle, every link's accounted credits,
    every input buffer's occupancy and every NI's ejection state on the
    one-flit-per-cycle timeline."""

    def __init__(self, network):
        self.network = network
        self.next_cycle = 0
        self.rows = []

    def sample(self, cycle):
        self.next_cycle = cycle + 1
        network = self.network
        row = [link.accounted_credits(cycle) for link in network.links]
        for switch in network.switches:
            if isinstance(switch, CentralBufferSwitch):
                assert (switch._route_pending, switch._cb_feed) == front_truth(
                    switch
                ), (cycle, switch.name)
                depth = switch.settings.input_fifo_depth
                occupancy = switch.fifo_occupancy
            else:
                depth = switch.settings.input_buffer_flits
                occupancy = switch.buffer_occupancy
            for port, link in enumerate(switch.in_links):
                held = occupancy(port)
                assert 0 <= held <= depth, (cycle, switch.name, port)
                if link is not None:
                    # credit conservation, with a run ahead or not
                    assert link.accounted_credits(cycle) + held == depth, (
                        cycle, switch.name, port,
                    )
                row.append(held)
        with end_of_cycle(network.sim):
            for interface in network.interfaces:
                link = interface.in_link
                assert link.accounted_credits(cycle) == interface.rx_depth
                row.append((interface.flits_ejected, interface.idle()))
        self.rows.append(row)


def timeline(config, make_workload):
    network = build_network(config)
    flits, spans = log_sends(network)
    probe = TimelineProbe(network)
    network.sim.add_probe(probe)
    result = run_workload(network, make_workload())
    assert result.completed
    observables = (
        result.cycles,
        result.summary(),
        tuple(ni.flits_ejected for ni in network.interfaces),
        network.sim.progress,
    )
    committed = [
        (switch.name,) + call
        for switch in network.switches
        for link in switch.out_links
        if link is not None
        for call in spans[link.name]
    ]
    # a span logs its members when it is committed: order by send cycle
    return (
        observables, {n: sorted(s) for n, s in flits.items()}, probe.rows,
        committed,
    )


def assert_same_timeline(config, make_workload, dense):
    fast = timeline(
        config.derived(packed=True, dense_kernel=dense), make_workload
    )
    reference = timeline(
        config.derived(packed=False, dense_kernel=True), make_workload
    )
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]
    assert not reference[3]
    return fast[3]


class TestCommittedRunsAreTheReference:
    @given(
        scenario=st.sampled_from(SCENARIOS),
        seed=st.integers(0, 2 ** 16),
        dense=st.booleans(),
        link_latency=st.integers(1, 3),
        fifo_depth=st.sampled_from([2, 4, 8, 16]),
        routing_delay=st.integers(0, 5),
        ni_rx_depth=st.sampled_from([1, 2, 4, 8]),
        policy=st.sampled_from(list(UpPortPolicy)),
    )
    @settings(max_examples=20, deadline=None)
    def test_send_logs_credits_and_occupancy_match_every_cycle(
        self, scenario, seed, dense, link_latency, fifo_depth,
        routing_delay, ni_rx_depth, policy,
    ):
        _, architecture, overrides, make_workload = scenario
        config = SimulationConfig(**{
            "num_hosts": 16, "switch_architecture": architecture,
            "seed": seed, "link_latency": link_latency,
            "input_fifo_depth": fifo_depth, "routing_delay": routing_delay,
            "ni_rx_depth": ni_rx_depth, "up_port_policy": policy,
            **overrides,
        })
        assert_same_timeline(config, make_workload, dense)

    @pytest.mark.parametrize("dense", [False, True])
    def test_the_ledger_stream_matches_every_cycle(self, dense):
        # the sweep above samples its scenarios; this one always runs
        _, architecture, overrides, make_workload = LEDGER_STREAM
        config = SimulationConfig(
            switch_architecture=architecture, seed=1, **overrides
        )
        committed = assert_same_timeline(config, make_workload, dense)
        # and it was swept as runs: worms of 64 flits and more leave in a
        # few calls per hop, and siblings that could send together did
        assert sum(call[-1] for call in committed) > 10 * len(committed)
        together = {
            (switch, now, worm.packet.packet_id)
            for switch, now, worm, _, _ in committed
        }
        assert len(together) < len(committed)


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


#: (label, hosts, workload factory): traffic that blocks, replicates and
#: saturates, so an observer has every reason to be noticed
OBSERVED = (
    ("saturating-unicast", 16, lambda: UniformRandomUnicast(
        load=0.9, payload_flits=16, warmup_cycles=100, measure_cycles=300,
    )),
    ("degree-16-stream", 64, _ledger_stream),
    ("hotspot", 16, lambda: HotspotTraffic(
        load=0.9, hotspot_fraction=0.8, payload_flits=32,
        warmup_cycles=200, measure_cycles=400,
    )),
)


class TestObservedIsProduction:
    """Telemetry watches the run, it does not select it: with registry
    *and* tracer enabled every component ticks on the cycles, and every
    link carries the send calls, of the same network built with
    neither."""

    @staticmethod
    def execution(config, make_workload, **observers):
        network = build_network(config, **observers)
        calls = []
        log_sends(network, calls)
        ticks = TickLog(network.sim)
        network.sim.attach_profiler(ticks)
        result = run_workload(network, make_workload())
        return (
            (result.cycles, result.summary()),
            ticks.ticks_by_class, ticks.ticked, calls,
        )

    @pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
    @pytest.mark.parametrize("scenario", OBSERVED, ids=lambda s: s[0])
    def test_same_ticks_and_same_send_calls(self, scenario, architecture):
        _, num_hosts, make_workload = scenario
        config = SimulationConfig(
            num_hosts=num_hosts, seed=11, switch_architecture=architecture
        )
        plain = self.execution(config, make_workload)
        registry = MetricsRegistry(enabled=True)
        tracer = Tracer(enabled=True)
        observed = self.execution(
            config, make_workload, metrics=registry, tracer=tracer
        )
        for ours, theirs in zip(observed, plain):
            assert ours == theirs
        # and it was watched, and it is the execution that commits runs
        assert registry.counters["switch.flits_forwarded"].value > 0
        assert tracer.records
        assert any(count > 1 for *_, count in observed[3])


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


class TestGroupBoundaries:
    """``InputBufferSwitch._commit_group`` on a hand-built front worm:
    input 0 of a one-switch network, one branch per output from 1 up,
    each current on its output unless a case says otherwise."""

    NOW = 20
    SIZE = 40

    def rig(self, reads, received=30):
        network = build_network(one_buffer_switch_config())
        (switch,) = network.switches
        assert isinstance(switch, InputBufferSwitch)
        worm = make_worm(size=self.SIZE)
        ingress = _BufferIngress(worm)
        ingress.received = received
        ingress.freed = min(reads)
        switch._inflow[0].append(ingress)
        for out_port, read in enumerate(reads, start=1):
            branch = _Branch(worm, out_port, 0, ingress)
            branch.read = read
            ingress.branches.append(branch)
            switch._current[out_port] = branch
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
        returns = switch.in_links[0]._credit_returns
        assert all(count == 1 for _, count in returns)
        return [mature for mature, _ in returns]

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
