"""The differential harness: production against the per-flit reference.

Every result rests on production (the active-set kernel, packed spans)
being bit-identical to the *ground truth* (the dense kernel, one
``Flit`` object per link per cycle: ``packed=False`` builds
``repro.reference``).  The suites that check it share one scenario
table (:data:`SCENARIOS`), the four :data:`FLAVOURS`, the measures a
run is read through (:func:`observables`, :func:`telemetry`,
:func:`timeline`, :func:`masks`), the sweep settings (:func:`sweep`)
and :class:`RunCache`, the session's ``runs`` fixture; each suite is a
comparator over runs drawn from that cache (``docs/testing.md`` §10).
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple
from typing import Callable, Mapping, NamedTuple, Optional

from hypothesis import example, seed, settings

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.errors import DeadlockSuspected
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import CycleSampler, register_network_gauges
from repro.routing.base import MulticastRoutingMode
from repro.sim.trace import Tracer
from repro.switches.base import ReplicationMode
from repro.switches.central_buffer import CentralBufferSwitch, _IngressState
from repro.switches.chunks import BranchCursor, CentralBufferPool
from repro.switches.ports import PORTS_OF
from repro.traffic.base import Workload
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import (
    MultipleMulticastBurst,
    RandomMulticastStream,
    SingleMulticast,
)
from repro.traffic.unicast import UniformRandomUnicast

CB = SwitchArchitecture.CENTRAL_BUFFER
IB = SwitchArchitecture.INPUT_BUFFER
TURNAROUND, BRANCH_ON_UP = MulticastRoutingMode
N = 16


class Scenario(NamedTuple):
    """One row of the table.  A row without an architecture runs on the
    one the test picks; workloads are stateful, so each run makes its
    own."""

    label: str
    architecture: Optional[SwitchArchitecture]
    overrides: Mapping[str, object]
    make_workload: Callable[[], Workload]

    def config(self, architecture=None, **params) -> SimulationConfig:
        """``N`` hosts and ``params``; the row's own fields win."""
        fields = {"num_hosts": N, **params, **self.overrides}
        architecture = self.architecture or architecture
        if architecture is not None:
            fields["switch_architecture"] = architecture
        return SimulationConfig(**fields)


def _unicast(load, payload, warmup, measure):
    return lambda: UniformRandomUnicast(
        load=load, payload_flits=payload,
        warmup_cycles=warmup, measure_cycles=measure,
    )


def _hotspot(load, fraction, payload, warmup, measure):
    return lambda: HotspotTraffic(
        load=load, hotspot_fraction=fraction, payload_flits=payload,
        warmup_cycles=warmup, measure_cycles=measure,
    )


def _stream(rate, degree, payload, warmup, measure):
    return lambda: RandomMulticastStream(
        ops_per_host_per_kilocycle=rate, degree=degree, payload_flits=payload,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=warmup, measure_cycles=measure,
    )


def _single(source, degree, payload, scheme):
    return lambda: SingleMulticast(
        source=source, degree=degree, payload_flits=payload, scheme=scheme,
    )


def _short_pool(shared_chunks=0):
    """Config overrides for a central buffer at its legal minimum — one
    maximum packet of chunks per input — plus ``shared_chunks``, with
    packets that fill their input's quota: the second worm from an input
    waits for admission, the second unicast is refused its chunks."""
    probe = SimulationConfig(num_hosts=N, max_packet_payload_flits=32)
    quota = -(-probe.max_packet_flits() // probe.chunk_flits)
    chunks = 2 * probe.arity * quota + shared_chunks
    return {
        "max_packet_payload_flits": 32,
        "central_buffer_flits": chunks * probe.chunk_flits,
    }


SYNCHRONOUS = {"replication": ReplicationMode.SYNCHRONOUS}
NARROW = {"cb_write_bandwidth": 2, "cb_read_bandwidth": 2}
#: the ledger's ``mcast-ib-64`` traffic, cut short: degree-16 worms of
#: 64 flits at a rate that saturates the ejection links, so branches
#: queue for busy outputs while their siblings run ahead
LEDGER_STREAM = _stream(1.0, 16, 64, 100, 400)

# workload arguments: unicast (load, payload, warmup, measure); hotspot
# (load, hot fraction, payload, warmup, measure); stream (operations per
# host per kilocycle, degree, payload, warmup, measure)

#: the every-cycle mask sweep's rows, one architecture each (lock-step
#: branches never commit a run, but their records are taken whole)
MASK_ROWS = (
    Scenario("uniform-cb", CB, {}, _unicast(0.5, 8, 50, 300)),
    Scenario("uniform-ib", IB, {}, _unicast(0.5, 8, 50, 300)),
    Scenario("hotspot-cb", CB, {}, _hotspot(0.5, 0.4, 8, 50, 250)),
    Scenario("hotspot-ib", IB, {}, _hotspot(0.5, 0.4, 8, 50, 250)),
    Scenario("mcast-cb", CB, {}, _stream(1.0, 6, 16, 50, 300)),
    Scenario("mcast-ib", IB, {}, _stream(1.0, 6, 16, 50, 300)),
    Scenario("mcast-ib-sync", IB, SYNCHRONOUS, _stream(1.0, 6, 16, 50, 300)),
)
#: the every-cycle timeline sweep's: those, the ledger's stream and a
#: buffer whose bandwidth is contended (the sweep draws link and FIFO
#: parameters at random, and a unicast allocating chunk by chunk from a
#: short pool can genuinely wedge — on either plane — under some of
#: them: the short-pool rows run at fixed parameters)
TIMELINE_ROWS = MASK_ROWS + (
    Scenario("mcast-ib-64", IB, {"num_hosts": 64}, LEDGER_STREAM),
    Scenario("mcast-bandwidth-2", CB, NARROW, _stream(2.0, 6, 16, 50, 300)),
)
#: central-buffer traffic that finds the pool short; with three shared
#: chunks the inputs that ask in one cycle cannot all have one, and who
#: does is the write arbiter's rotation
SHORT_POOL_ROWS = (
    Scenario("hotspot-short-pool", CB, _short_pool(), _hotspot(0.7, 0.5, 32, 50, 300)),
    Scenario("mcast-short-pool", CB, _short_pool(), _stream(6.0, 6, 32, 50, 300)),
    Scenario(
        "hotspot-thin-shared", CB, _short_pool(3), _hotspot(0.7, 0.5, 32, 50, 300)
    ),
)
#: the whole-system sweeps' rows, on either architecture: unicast (low
#: and saturating load), hardware and software multicast (the SW scheme
#: moves unicast worms under a collective protocol), a multicast stream
#: and tree-saturating hotspot traffic
SQUARE_ROWS = (
    Scenario("low-load-unicast", None, {}, _unicast(0.01, 8, 100, 600)),
    Scenario("hot-unicast", None, {}, _unicast(0.6, 8, 100, 400)),
    Scenario("hw-multicast", None, {}, _single(3, 9, 24, MulticastScheme.HARDWARE)),
    Scenario("sw-multicast", None, {}, _single(1, 6, 16, MulticastScheme.SOFTWARE)),
    Scenario("slow-mcast-stream", None, {}, _stream(0.5, 5, 16, 100, 500)),
    Scenario("warm-hotspot", None, {}, _hotspot(0.5, 0.4, 8, 100, 300)),
)
SCENARIOS = TIMELINE_ROWS + SHORT_POOL_ROWS + SQUARE_ROWS + (
    Scenario("mcast-cb-64", CB, {"num_hosts": 64}, LEDGER_STREAM),
    Scenario("degree-16-stream", None, {"num_hosts": 64}, LEDGER_STREAM),
    # traffic that blocks, replicates and saturates, on either
    # architecture: what telemetry is held to the ground truth on, and
    # what an observer has every reason to be noticed on (contention at
    # the hotspot's load makes head-of-line waiting at the NIs and
    # blocked outputs and full buffers in the switches)
    Scenario("saturating-unicast", None, {}, _unicast(0.9, 16, 100, 300)),
    Scenario("multicast-stream", None, {}, _stream(2.0, 8, 48, 100, 400)),
    Scenario("hotspot", None, {}, _hotspot(0.9, 0.8, 32, 200, 400)),
    # A4's traffic — concurrent degree-6 multicasts, all at once — with
    # messages of several worms each, more than an input buffer holds,
    # under synchronous replication; an NI of depth 1 is no sink (see
    # repro.switches.link), so every ejection link is credit-limited
    Scenario(
        "a4-lock-step", IB, {**SYNCHRONOUS, "ni_rx_depth": 1},
        lambda: MultipleMulticastBurst(
            num_multicasts=8, degree=6, payload_flits=400,
            scheme=MulticastScheme.HARDWARE,
        ),
    ),
)
ROW = {scenario.label: scenario for scenario in SCENARIOS}
assert len(ROW) == len(SCENARIOS)


#: the four corners of the square (kernel x data plane); ``ground-truth``
#: is the reference every other corner is held to
FLAVOURS = {
    "production": {"packed": True, "dense_kernel": False},
    "dense": {"packed": True, "dense_kernel": True},
    "reference-active": {"packed": False, "dense_kernel": False},
    "ground-truth": {"packed": False, "dense_kernel": True},
}


def flavour(config: SimulationConfig, name: str) -> SimulationConfig:
    return config.derived(**FLAVOURS[name])


class RunCache:
    """Each (measure, scenario, configuration, options) simulated once:
    a run is held until the last of its ``consumers`` (the comparison
    that requests it knows how many read it) has read it, then dropped.
    Consumers only read what they are handed."""

    def __init__(self):
        self._held = {}
        #: simulations per key: above one only if a key is requested
        #: again after its run was dropped
        self.simulated = Counter()

    def run(self, measure, scenario, config, consumers=1, **options):
        key = (
            measure.__name__, scenario.label, astuple(config),
            tuple(sorted(options.items())),
        )
        held = self._held.pop(key, None)
        if held is None:
            self.simulated[key] += 1
            held = [
                measure(config, scenario.make_workload, **options), consumers,
            ]
        held[1] -= 1
        if held[1] > 0:
            self._held[key] = held
        return held[0]


def sweep(examples, group, **cycles):
    """A whole-network hypothesis sweep's settings and explicit rows.

    Tier-1 replays one fixed draw of ``examples``, seeded with 0
    (``derandomize`` alone would seed it from the test's source, and
    re-roll it on every edit), plus one example per row of ``group`` as
    ``scenario``, the other arguments cycled through ``cycles`` by the
    row's index: a fixed draw follows hypothesis' version, these rows do
    not, so every row always runs.  ``--hypothesis-profile=sweep``
    (tests/conftest.py) searches afresh."""
    def decorate(test):
        for index, row in enumerate(group):
            test = example(scenario=row, **{
                name: values[index % len(values)]
                for name, values in cycles.items()
            })(test)
        if settings.get_current_profile_name() == "sweep":
            return settings(deadline=None)(test)
        fixed = settings(max_examples=examples, derandomize=True, deadline=None)
        return seed(0)(fixed(test))

    return decorate


#: the explicit rows' other arguments in the sweeps that draw an
#: architecture, a routing mode and a seed (with one seed and one
#: strategy their fixed draws are the same too: the kernel and the
#: data-plane sweep hold production to both neighbours on each)
SQUARE_EXAMPLES = dict(
    architecture=(CB, IB),
    mode=(TURNAROUND, TURNAROUND, BRANCH_ON_UP, BRANCH_ON_UP),
    seed=range(len(SQUARE_ROWS)),
)


def summary_of(network, result):
    """Every observable of one run: cycles, summary, per-host flit
    counts, and the kernel's progress counter."""
    return (
        result.cycles,
        result.summary(),
        tuple(ni.flits_ejected for ni in network.interfaces),
        network.sim.progress,
    )


def observables(config, make_workload):
    network = build_network(config)
    return summary_of(network, run_workload(network, make_workload()))


def assert_observables_agree(runs, scenario, config, ours, theirs, shared=1):
    """Flavour ``ours`` observes what ``theirs`` does; ``shared``: how
    many comparisons read the run of ``ours``."""
    assert runs.run(observables, scenario, flavour(config, ours), shared) == (
        runs.run(observables, scenario, flavour(config, theirs))
    )


_FLIT = re.compile(r"Flit\((\d+):(\d+)[HBT]\)")


def flit_of(record):
    """``(packet id, index)`` of the flit a trace record names."""
    return tuple(map(int, _FLIT.fullmatch(record.get("flit")).groups()))


def per_flit(record):
    """The per-flit events one trace record stands for.

    A ``flit_in`` record with ``count`` covers that many flits of one
    worm landing on consecutive cycles (absent: 1, the reference's
    form); flits are named by coordinates, the repr's head/body/tail
    letter being a function of them.  Every other event is itself.
    """
    if record.event != "flit_in":
        yield record.cycle, record.source, record.event, record.details
        return
    packet, start = flit_of(record)
    for member in range(record.get("count", 1)):
        yield (
            record.cycle + member, record.source, "flit_in",
            (record.get("port"), packet, start + member),
        )


def telemetry(config, make_workload, prepare=None, **run_kwargs):
    """Everything an observed run reports: how it ended, the per-flit
    event list (sorted: a trace is cycle-stamped, in emission order),
    every counter value and the sampled gauge series."""
    tracer = Tracer()
    registry = MetricsRegistry()
    network = build_network(config, tracer=tracer, metrics=registry)
    register_network_gauges(network, registry)
    sampler = CycleSampler(registry, every=7)
    network.sim.add_component(sampler)
    if prepare is not None:
        prepare(network)
    try:
        result = run_workload(network, make_workload(), **run_kwargs)
        outcome = (result.cycles, result.completed, result.summary())
    except DeadlockSuspected as stall:
        outcome = (network.sim.now, str(stall))
    assert tracer.dropped_count == 0
    events = sorted(
        event for record in tracer.records for event in per_flit(record)
    )
    counters = {
        name: counter.value for name, counter in registry.counters.items()
    }
    return outcome, events, counters, sampler.series


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


def log_takes(network):
    """Every record handed over by a link as ``(link, cycle, packet id,
    start, count)``, in the order taken."""
    takes = []
    for link in network.links:
        def logged(now, limit=None, _take=link.receive_span,
                   _name=link.name):
            span = _take(now, limit)
            if span is not None:
                worm, start, count = span
                takes.append(
                    (_name, now, worm.packet.packet_id, start, count)
                )
            return span

        link.receive_span = logged
    return takes


def mask_of(flags):
    return sum(1 << port for port, flag in enumerate(flags) if flag)


def switch_truth(switch):
    """(ingress, wanted, busy, route-pending) recomputed from the
    switch's own state."""
    fronts = [inflow[0] if inflow else None for inflow in switch._inflow]
    if isinstance(switch, CentralBufferSwitch):
        wanted, current = switch._out_queue, switch._out_current
        pending = [
            front is not None and front.state in (
                _IngressState.ROUTE_WAIT, _IngressState.ADMIT_WAIT
            )
            for front in fronts
        ]
    else:
        wanted, current = switch._waiting, switch._current
        pending = [
            front is not None
            and not front.branches
            and front.received >= front.worm.header_flits
            for front in fronts
        ]
    return (
        mask_of(bool(inflow) for inflow in switch._inflow),
        mask_of(bool(queue) for queue in wanted),
        mask_of(slot is not None for slot in current),
        mask_of(pending),
    )


def front_truth(switch, cycle):
    """(route_pending, cb_feed) of a central-buffer switch recomputed
    from its FIFO-front worms — whose write-run state must be one the
    per-flit timeline can be read from at the end of ``cycle``."""
    fronts = [inflow[0] if inflow else None for inflow in switch._inflow]
    for port, front in enumerate(fronts):
        stored = None if front is None else front.stored
        if stored is None or front.state is not _IngressState.STREAM_CB:
            continue
        # a FIFO slot is consumed by the write that empties it, and a
        # run writes ahead only what has landed by its turn — taken off
        # the link, ahead of its cycle or not, or still waiting there —
        # never the tail, into space the packet holds
        assert front.consumed == stored.flits_written
        link = switch.in_links[port]
        landed = front.landed_by(cycle) + link._in_flight.arrived(cycle)
        assert stored.written_by(cycle) <= landed, (cycle, switch.name, port)
        assert stored.owned_space() >= 0
        if stored.last_write > cycle:
            assert stored.flits_written < stored.total_flits
    states = [None if front is None else front.state for front in fronts]
    return (
        mask_of(
            state in (_IngressState.ROUTE_WAIT, _IngressState.ADMIT_WAIT)
            for state in states
        ),
        mask_of(state is _IngressState.STREAM_CB for state in states),
    )


def rx_truth(in_links):
    return mask_of(
        link is not None and link.in_flight() > 0 for link in in_links
    )


class MaskAuditor:
    """Kernel probe: compare every mask with its truth after each cycle."""

    def __init__(self, network):
        self.network = network
        #: only receivers that drain by mask clear their rx bits
        self.audit_rx = network.config.packed
        self.next_cycle = 0
        self.cycles_audited = 0

    def sample(self, cycle):
        self.next_cycle = cycle + 1
        self.cycles_audited += 1
        for switch in self.network.switches:
            masks = (
                switch._ingress_occupied,
                switch._egress_wanted,
                switch._egress_busy,
                switch._route_pending,
            )
            assert masks == switch_truth(switch), (cycle, switch.name)
            if isinstance(switch, CentralBufferSwitch):
                assert (
                    switch._route_pending, switch._cb_feed
                ) == front_truth(switch, cycle), (cycle, switch.name)
            # the link sets the bit at send time and the receiver clears
            # it on the drain that empties the queue, so under the packed
            # receivers "holds flits" and "bit set" coincide exactly
            if self.audit_rx:
                assert switch._rx_pending == rx_truth(switch.in_links), (
                    cycle, switch.name,
                )
            if switch.idle():
                assert masks == (0, 0, 0, 0)
        if self.audit_rx:
            for interface in self.network.interfaces:
                assert interface._rx_pending == rx_truth(
                    [interface.in_link]
                ), (cycle, interface.name)


def masks(config, make_workload, observed):
    """A run audited every cycle by :class:`MaskAuditor`, watched by a
    registry and a tracer or by neither; returns the cycles audited."""
    network = build_network(
        config,
        metrics=MetricsRegistry() if observed else None,
        tracer=Tracer() if observed else None,
    )
    auditor = MaskAuditor(network)
    network.sim.add_probe(auditor)
    result = run_workload(network, make_workload())
    assert result.completed
    assert auditor.cycles_audited >= result.cycles
    for switch in network.switches:
        assert switch.idle()
        if config.packed:
            assert switch._rx_pending == 0
    return auditor.cycles_audited


def pool_row(switch, cycle):
    """The chunk pool as of the end of ``cycle``: what allocation will
    find next cycle, and what the occupancy gauge and X3's probe read."""
    pool = switch.pool.at(cycle)
    assert pool.used_chunks + pool.free_chunks == pool.capacity_chunks
    return (
        pool.used_chunks, pool.free_shared, tuple(pool.free_quota),
        pool.occupancy.peak, pool.occupancy.average(cycle + 1),
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


def queued_records(link):
    """The span records still in ``link``, oldest first, as ``(arrival,
    worm, start, count)``."""
    queue = link._in_flight
    for record in range(queue._head, queue._tail):
        slot = record & queue._mask
        arrival, start, count = queue._arr[3 * slot:3 * slot + 3]
        yield arrival, queue._worms[slot], start, count


def receive_row(switch, port, cycle):
    """The worms at input ``port``, oldest first, as ``[packet id, flits
    landed, header stamp]`` at the end of ``cycle`` on the
    one-flit-per-cycle timeline: what a switch that accepts each flit on
    the cycle it lands has — whether this one took them ahead of their
    cycle with their record's head, or has yet to (asleep inside a run,
    they wait in the link)."""
    rows = []
    link = switch.in_links[port]
    if not switch._inflow[port] and (link is None or not link.in_flight()):
        return rows
    for ingress in switch._inflow[port]:
        stamp = ingress.header_done_cycle
        landed = ingress.landed_by(cycle)
        assert 1 <= landed <= ingress.received
        # a header stamped ahead is not complete yet
        assert (stamp is not None and stamp <= cycle) == (
            landed >= ingress.worm.header_flits
        ), (cycle, switch.name, port)
        rows.append([
            ingress.worm.packet.packet_id, landed,
            stamp if landed >= ingress.worm.header_flits else None,
        ])
    for arrival, worm, start, count in (
        () if link is None else queued_records(link)
    ):
        landed = min(count, cycle - arrival + 1)
        if landed <= 0:
            break
        if start:
            row = rows[-1]
            assert row[:2] == [worm.packet.packet_id, start]
            row[1] += landed
        else:
            row = [worm.packet.packet_id, landed, None]
            rows.append(row)
        header = worm.header_flits
        if start < header <= start + landed:
            row[2] = arrival + header - 1 - start
    return rows


def assert_cursors_behind_landings(switch, port, landed, cycle):
    """No mover of the front worm at ``port`` is, on the timeline, past
    the ``landed`` flits of it (inside a run its cursor is ahead by the
    members still to go)."""
    front = switch._inflow[port][0]
    where = (cycle, switch.name, port)
    if isinstance(switch, CentralBufferSwitch):
        cursor = front.consumed
        if front.stored is not None:
            cursor = front.stored.written_by(cycle)
        elif front.bypass_port is not None:
            link = switch.out_links[front.bypass_port]
            cursor -= max(0, link._last_send_cycle - cycle)
        assert cursor <= landed, where
        return
    for branch in front.branches:
        cursor = branch.read
        if switch._current[branch.out_port] is branch:
            link = switch.out_links[branch.out_port]
            cursor -= max(0, link._last_send_cycle - cycle)
        assert cursor <= landed, where


class TimelineProbe:
    """Kernel probe: after each cycle, every link's accounted credits,
    every input buffer's occupancy and worms, and every NI's ejection
    state on the one-flit-per-cycle timeline."""

    def __init__(self, network):
        self.network = network
        self.next_cycle = 0
        self.rows = []
        #: sightings of a central-buffer write / read run, and of a worm
        #: with flits taken off its in-link, ahead of the cycle sampled
        self.write_runs = 0
        self.read_runs = 0
        self.taken_ahead = 0

    def sample(self, cycle):
        self.next_cycle = cycle + 1
        network = self.network
        credits = {
            link: link.accounted_credits(cycle) for link in network.links
        }
        row = list(credits.values())
        for switch in network.switches:
            if isinstance(switch, CentralBufferSwitch):
                assert (switch._route_pending, switch._cb_feed) == front_truth(
                    switch, cycle
                ), (cycle, switch.name)
                depth = switch.settings.input_fifo_depth
                occupancy = switch.fifo_occupancy
                row.append(pool_row(switch, cycle))
                self.count_runs(switch, cycle)
            else:
                depth = switch.settings.input_buffer_flits
                occupancy = switch.buffer_occupancy
            for port, link in enumerate(switch.in_links):
                held = occupancy(port)
                assert 0 <= held <= depth, (cycle, switch.name, port)
                if link is not None:
                    # credit conservation, with a run ahead or not
                    assert credits[link] + held == depth, (
                        cycle, switch.name, port,
                    )
                row.append(held)
                worms = receive_row(switch, port, cycle)
                row.append(worms)
                if switch._inflow[port]:
                    assert_cursors_behind_landings(
                        switch, port, worms[0][1], cycle
                    )
                    self.taken_ahead += (
                        switch._inflow[port][-1].last_landing > cycle
                    )
        with end_of_cycle(network.sim):
            for interface in network.interfaces:
                assert credits[interface.in_link] == interface.rx_depth
                row.append((interface.flits_ejected, interface.idle()))
        self.rows.append(row)

    def count_runs(self, switch, cycle):
        for port in PORTS_OF[switch._cb_feed]:
            if switch._inflow[port][0].stored.last_write > cycle:
                self.write_runs += 1
        for port in PORTS_OF[switch._egress_busy]:
            if (
                isinstance(switch._out_current[port], BranchCursor)
                and switch.out_links[port]._last_send_cycle > cycle
            ):
                self.read_runs += 1


class Timeline(NamedTuple):
    observables: tuple
    sends: dict  # per link, every flit sent, by send cycle
    rows: list  # TimelineProbe's row of every cycle
    committed: list  # every span call of a switch
    cb_runs: tuple  # central-buffer (write, read) runs sighted ahead
    taken_ahead: int
    refused: int  # allocations the chunk pools refused


def timeline(config, make_workload):
    network = build_network(config)
    flits, spans = log_sends(network)
    probe = TimelineProbe(network)
    network.sim.add_probe(probe)
    refused = 0
    take = CentralBufferPool.try_take

    def counted(pool, input_port, chunks, now):
        nonlocal refused
        charge = take(pool, input_port, chunks, now)
        refused += charge is None
        return charge

    CentralBufferPool.try_take = counted
    try:
        result = run_workload(network, make_workload())
    finally:
        CentralBufferPool.try_take = take
    assert result.completed
    committed = [
        (switch.name,) + call
        for switch in network.switches
        for link in switch.out_links
        if link is not None
        for call in spans[link.name]
    ]
    # a span logs its members when it is committed: order by send cycle
    return Timeline(
        summary_of(network, result),
        {name: sorted(sent) for name, sent in flits.items()}, probe.rows,
        committed, (probe.write_runs, probe.read_runs), probe.taken_ahead,
        refused,
    )
