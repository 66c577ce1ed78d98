"""Telemetry is the ground truth's, whatever moved the flits.

The ground truth is the per-flit reference (``repro.reference``) on the
dense kernel: one ``Flit`` per call, every component ticked every cycle,
every blocked cycle counted by the tick that was blocked.  Production
moves spans, commits runs ahead of time and sleeps while blocked — and
runs the same way whether or not it is observed — so its telemetry is
span-aware: one ``flit_in`` record per span record taken, stamped at
its head's landing and carrying a ``count``, counters bumped by the
run, ``blocked_cycles`` settled by
interval when a sleep ends or the run does, link utilisation read on the
one-flit-per-cycle timeline.  With tracer *and* registry enabled every
flavour — production on either kernel, and the reference on the
active-set kernel, which sleeps through blocked cycles too — must report
what the ground truth reports: the same events once ``flit_in`` is
expanded by ``count`` (a trace is cycle-stamped, in emission order: a
switch that slept through a landing stamps it when it next looks, so
streams compare sorted), every counter *value*, and the sampled gauge
series; on both architectures, over workloads that between them reach
every plane-specific emit and increment, and on a run that stops
blocked.  Delete any one emit or increment from either plane and a case
below fails.
"""

from __future__ import annotations

import re

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.errors import DeadlockSuspected
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import CycleSampler, register_network_gauges
from repro.sim.trace import Tracer
from repro.switches.base import ReplicationMode
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import (
    MultipleMulticastBurst,
    RandomMulticastStream,
)
from repro.traffic.unicast import UniformRandomUnicast

from tests.switches.test_span_commit import (
    SHORT_POOL_HOTSPOT,
    SHORT_POOL_STREAM,
    log_takes,
)

CB = SwitchArchitecture.CENTRAL_BUFFER
IB = SwitchArchitecture.INPUT_BUFFER

#: workload factories (workloads are stateful: one instance per run)
WORKLOADS = {
    "saturating-unicast": lambda: UniformRandomUnicast(
        load=0.9, payload_flits=16,
        warmup_cycles=100, measure_cycles=300,
    ),
    "multicast-stream": lambda: RandomMulticastStream(
        ops_per_host_per_kilocycle=2.0, degree=8, payload_flits=48,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=100, measure_cycles=400,
    ),
    # contention at this load produces head-of-line waiting at the NIs
    # and blocked outputs and full buffers in the switches
    "hotspot": lambda: HotspotTraffic(
        load=0.9, hotspot_fraction=0.8, payload_flits=32,
        warmup_cycles=200, measure_cycles=400,
    ),
}

#: (packed, dense kernel) of the flavours held to the ground truth
FLAVOURS = {
    "active": (True, False),
    "dense": (True, True),
    "reference-active": (False, False),
}
GROUND_TRUTH = (False, True)

#: what must be seen (events) / non-zero (counters) in a case, so the
#: agreement asserted below is never agreement on nothing
ALWAYS = (
    "flit_in", "inject_start", "packet_delivered",
    "switch.flits_forwarded", "ni.flits_injected", "ni.flits_ejected",
)
ALSO = {
    ("multicast-stream", CB): ("switch.chunks_replicated",),
    ("multicast-stream", IB): ("switch.branches_replicated",),
    ("hotspot", CB): ("switch.blocked_cycles", "ni.blocked_cycles"),
    ("hotspot", IB): ("switch.blocked_cycles", "ni.blocked_cycles"),
}

_FLIT = re.compile(r"Flit\((\d+):(\d+)[HBT]\)")


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
    packet, start = map(int, _FLIT.fullmatch(record.get("flit")).groups())
    for member in range(record.get("count", 1)):
        yield (
            record.cycle + member, record.source, "flit_in",
            (record.get("port"), packet, start + member),
        )


def telemetry(config, make_workload, prepare=None, **run_kwargs):
    """Everything an observed run reports: how it ended, the per-flit
    event list, every counter value and the sampled gauge series."""
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


def assert_reports_the_ground_truth(config, make_workload, flavour, **kwargs):
    packed, dense = FLAVOURS[flavour]
    ours = telemetry(
        config.derived(packed=packed, dense_kernel=dense),
        make_workload, **kwargs,
    )
    packed, dense = GROUND_TRUTH
    truth = telemetry(
        config.derived(packed=packed, dense_kernel=dense),
        make_workload, **kwargs,
    )
    for reported, true in zip(ours, truth):
        assert reported == true
    _, events, counters, series = ours
    assert len(series) > 10
    seen = {event for _, _, event, _ in events}
    seen.update(name for name, value in counters.items() if value > 0)
    return seen, counters


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
def test_planes_report_the_same(architecture, workload, flavour):
    config = SimulationConfig(
        num_hosts=16, seed=5, switch_architecture=architecture
    )
    seen, _ = assert_reports_the_ground_truth(
        config, WORKLOADS[workload], flavour
    )
    expected = ALWAYS + ALSO.get((workload, architecture), ())
    assert not [name for name in expected if name not in seen]


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize(
    "scenario", (SHORT_POOL_HOTSPOT, SHORT_POOL_STREAM),
    ids=lambda scenario: scenario[0],
)
def test_a_pool_that_runs_short_reports_the_same(scenario, flavour):
    # refused writes and admissions are what a central-buffer switch
    # counts blocked, and a switch refused a chunk sleeps on the pool's
    # dated releases — stirred or not
    _, architecture, overrides, make_workload = scenario
    config = SimulationConfig(
        num_hosts=16, seed=5, switch_architecture=architecture, **overrides
    )
    seen, counters = assert_reports_the_ground_truth(
        config, make_workload, flavour
    )
    assert not [name for name in ALWAYS if name not in seen]
    assert counters["switch.blocked_cycles"] > 100


@pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
def test_one_flit_in_record_per_record_taken(architecture):
    tracer = Tracer()
    network = build_network(
        SimulationConfig(
            num_hosts=16, seed=5, switch_architecture=architecture
        ),
        tracer=tracer,
    )
    takes = log_takes(network)
    assert run_workload(network, WORKLOADS["hotspot"]()).completed
    inputs = {
        link.name: (switch.name, port)
        for switch in network.switches
        for port, link in enumerate(switch.in_links) if link is not None
    }
    taken = {
        inputs[name] + (packet, start, count): now
        for name, now, packet, start, count in takes if name in inputs
    }
    stamped = {}
    for record in tracer.records:
        if record.event == "flit_in":
            packet, start = map(
                int, _FLIT.fullmatch(record.get("flit")).groups()
            )
            stamped[
                record.source, record.get("port"), packet, start,
                record.get("count"),
            ] = record.cycle
    # one record per take, stamped at the head's landing: the cycle it
    # is taken on, unless the switch slept through that inside a run
    assert stamped.keys() == taken.keys()
    assert all(stamped[key] <= taken[key] for key in taken)
    assert sum(key[-1] for key in taken) > 3 * len(taken)


def _a4_burst():
    """A4's traffic — concurrent degree-6 multicasts, all at once — with
    messages of several worms each, more than an input buffer holds, so
    that the NIs back up behind a stalled switch too."""
    return MultipleMulticastBurst(
        num_multicasts=8, degree=6, payload_flits=400,
        scheme=MulticastScheme.HARDWARE,
    )


def _deaf_host(network, host=3):
    """``host`` stops handing back the slots of its receive FIFO.  The
    switch in front of it runs out of credits for good; under
    synchronous replication that one blocked branch stalls its whole
    worm, which holds the switch's replication token, and the stall
    spreads upstream until nothing moves — with switches and NIs asleep
    on credits that never come, blocked cycles still to be counted."""
    link = network.interfaces[host].in_link
    link.return_credit = link.return_credit_ramp = lambda now, count=1: None


#: how the run that stops blocked stops: out of cycles (data, says
#: ``run_workload``) or by the stall detector's exception — the counters
#: are read after either
STOPS = {
    "budget": dict(max_cycles=3_000),
    "stall": dict(stall_limit=1_500),
}


@pytest.mark.parametrize("stop", list(STOPS))
@pytest.mark.parametrize("flavour", list(FLAVOURS))
def test_a_run_that_stops_blocked_reports_the_same(flavour, stop):
    # A4's synchronous-replication stall, made permanent.  An NI of
    # depth 1 is no sink (see repro.switches.link), so every ejection
    # link is credit-limited and both blocked counters run throughout
    config = SimulationConfig(
        num_hosts=16, seed=5, switch_architecture=IB,
        replication=ReplicationMode.SYNCHRONOUS, ni_rx_depth=1,
    )
    seen, counters = assert_reports_the_ground_truth(
        config, _a4_burst, flavour, prepare=_deaf_host, **STOPS[stop]
    )
    assert not [name for name in ALWAYS if name not in seen]
    # it did stop blocked: most of the run is switches and NIs waiting
    assert counters["switch.blocked_cycles"] > 10_000
    assert counters["ni.blocked_cycles"] > 10_000
