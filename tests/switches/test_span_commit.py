"""Committed bypass runs are the per-flit reference, flit for flit.

The central-buffer switch commits a run of bypass flits in one
``send_span`` and sleeps through it (``repro.switches.central_buffer``),
and credits wake their sender only on demand (``repro.switches.link``).
Neither may move a single flit by a single cycle.  The sweep below runs
the scenarios of ``test_port_activity`` on the production flavour and on
the dense-kernel/object-flit reference and compares, per link, the log of
every flit sent ``(cycle, packet, index)`` and, after every cycle, each
link's credit accounting and each input FIFO's occupancy — the
introspection must keep the reference timeline while a run is ahead of
it — plus credit conservation and the two FIFO-front masks on the way.
The unit cases pin where a run must stop.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.registry import MetricsRegistry
from repro.routing.base import UpPortPolicy
from repro.sim.trace import Tracer
from repro.switches.central_buffer import (
    CentralBufferSwitch,
    _Ingress,
    _IngressState,
    _bypass_run,
)
from repro.traffic.unicast import UniformRandomUnicast

from tests.switches.test_central_buffer import (
    one_switch_config,
    run_to_quiescence,
    schedule_unicast,
)
from tests.switches.test_link_spans import make_link, make_worm
from tests.switches.test_port_activity import SCENARIOS, mask_of


def log_sends(network):
    """Per link, every flit sent as ``(cycle, packet id, index)`` — the
    nominal send cycle for members of a span — and every span call."""
    flits, spans = {}, {}
    for link in network.links:
        sent = flits[link.name] = []
        calls = spans[link.name] = []

        def single(send, _sent=sent):
            def logged(now, worm, index):
                _sent.append((now, worm.packet.packet_id, index))
                send(now, worm, index)

            return logged

        def span(now, worm, start, count, _send=link.send_span,
                 _sent=sent, _calls=calls):
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


class TimelineProbe:
    """Kernel probe: after each cycle, every link's accounted credits
    and every input FIFO's occupancy on the one-flit-per-cycle timeline."""

    def __init__(self, network):
        self.network = network
        self.next_cycle = 0
        self.rows = []

    def sample(self, cycle):
        self.next_cycle = cycle + 1
        network = self.network
        row = [link.accounted_credits(cycle) for link in network.links]
        for switch in network.switches:
            if not isinstance(switch, CentralBufferSwitch):
                continue
            assert (switch._route_pending, switch._cb_feed) == front_truth(
                switch
            ), (cycle, switch.name)
            depth = switch.settings.input_fifo_depth
            for port, link in enumerate(switch.in_links):
                held = switch.fifo_occupancy(port)
                assert 0 <= held <= depth, (cycle, switch.name, port)
                if link is not None:
                    # credit conservation, with a run ahead or not
                    assert link.accounted_credits(cycle) + held == depth, (
                        cycle, switch.name, port,
                    )
                row.append(held)
        for interface in network.interfaces:
            link = interface.in_link
            assert link.accounted_credits(cycle) == interface.rx_depth
        self.rows.append(row)


def timeline(config, make_workload):
    network = build_network(config)
    flits, _ = log_sends(network)
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
    # a span logs its members when it is committed: order by send cycle
    return observables, {n: sorted(s) for n, s in flits.items()}, probe.rows


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
        config = SimulationConfig(
            num_hosts=16, switch_architecture=architecture, seed=seed,
            link_latency=link_latency, input_fifo_depth=fifo_depth,
            routing_delay=routing_delay, ni_rx_depth=ni_rx_depth,
            up_port_policy=policy, **overrides,
        )
        fast = timeline(
            config.derived(packed=True, dense_kernel=dense), make_workload
        )
        reference = timeline(
            config.derived(packed=False, dense_kernel=True), make_workload
        )
        assert fast[0] == reference[0]
        assert fast[1] == reference[1]
        assert fast[2] == reference[2]


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
        network, calls, _ = one_switch_run()
        depth = network.config.ni_rx_depth
        # toward a host whose NI hands each credit back as the flit
        # lands, the window is the NI's depth, never more
        assert max(count for _, _, _, count in calls) == depth

    def test_telemetry_on_commits_nothing_and_changes_nothing(self):
        def result_of(**build_kwargs):
            network = build_network(
                SimulationConfig(num_hosts=16, seed=11), **build_kwargs
            )
            _, spans = log_sends(network)
            result = run_workload(network, UniformRandomUnicast(
                load=0.3, payload_flits=12,
                warmup_cycles=50, measure_cycles=300,
            ))
            committed = sum(
                len(spans[link.name]) for link in switch_out_links(network)
            )
            return (result.cycles, result.summary()), committed

        plain, committed = result_of()
        assert committed > 0
        for observers in (
            {"metrics": MetricsRegistry(enabled=True)},
            {"tracer": Tracer(enabled=True)},
        ):
            observed, committed = result_of(**observers)
            assert committed == 0
            assert observed == plain


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
