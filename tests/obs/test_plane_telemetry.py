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

import pytest

from repro.network.builder import build_network
from repro.network.simulation import run_workload
from repro.sim.trace import Tracer

from tests.differential import (
    CB,
    IB,
    ROW,
    flavour,
    flit_of,
    log_takes,
    telemetry,
)

#: the flavours held to the ground truth, and their test ids
HELD = ("production", "dense", "reference-active")
IDS = ("active", "dense", "reference-active")

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


def assert_reports_the_ground_truth(runs, scenario, config, held,
                                    expected=ALWAYS, **options):
    """The ``held`` flavour's telemetry against the ground truth's, which
    every flavour of :data:`HELD` reads; every name ``expected`` seen.
    Returns the counters."""
    ours = runs.run(telemetry, scenario, flavour(config, held), **options)
    truth = runs.run(
        telemetry, scenario, flavour(config, "ground-truth"), len(HELD),
        **options,
    )
    for reported, true in zip(ours, truth):
        assert reported == true
    _, events, counters, series = ours
    assert len(series) > 10
    seen = {event for _, _, event, _ in events}
    seen.update(name for name, value in counters.items() if value > 0)
    assert not [name for name in expected if name not in seen]
    return counters


@pytest.mark.parametrize("held", HELD, ids=IDS)
@pytest.mark.parametrize(
    "label", ("saturating-unicast", "multicast-stream", "hotspot")
)
@pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
def test_planes_report_the_same(runs, architecture, label, held):
    scenario = ROW[label]
    assert_reports_the_ground_truth(
        runs, scenario, scenario.config(architecture, seed=5), held,
        ALWAYS + ALSO.get((label, architecture), ()),
    )


@pytest.mark.parametrize("held", HELD, ids=IDS)
@pytest.mark.parametrize("label", ("hotspot-short-pool", "mcast-short-pool"))
def test_a_pool_that_runs_short_reports_the_same(runs, label, held):
    # refused writes and admissions are what a central-buffer switch
    # counts blocked, and a switch refused a chunk sleeps on the pool's
    # dated releases — stirred or not
    scenario = ROW[label]
    counters = assert_reports_the_ground_truth(
        runs, scenario, scenario.config(seed=5), held
    )
    assert counters["switch.blocked_cycles"] > 100


@pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
def test_one_flit_in_record_per_record_taken(architecture):
    tracer = Tracer()
    scenario = ROW["hotspot"]
    network = build_network(
        scenario.config(architecture, seed=5), tracer=tracer
    )
    takes = log_takes(network)
    assert run_workload(network, scenario.make_workload()).completed
    inputs = {
        link.name: (switch.name, port)
        for switch in network.switches
        for port, link in enumerate(switch.in_links) if link is not None
    }
    taken = {
        inputs[name] + (packet, start, count): now
        for name, now, packet, start, count in takes if name in inputs
    }
    stamped = {
        (record.source, record.get("port")) + flit_of(record)
        + (record.get("count"),): record.cycle
        for record in tracer.records if record.event == "flit_in"
    }
    # one record per take, stamped at the head's landing: the cycle it
    # is taken on, unless the switch slept through that inside a run
    assert stamped.keys() == taken.keys()
    assert all(stamped[key] <= taken[key] for key in taken)
    assert sum(key[-1] for key in taken) > 3 * len(taken)


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
@pytest.mark.parametrize("held", HELD, ids=IDS)
def test_a_run_that_stops_blocked_reports_the_same(runs, held, stop):
    # A4's synchronous-replication stall, made permanent: with an NI of
    # depth 1 both blocked counters run throughout
    scenario = ROW["a4-lock-step"]
    counters = assert_reports_the_ground_truth(
        runs, scenario, scenario.config(seed=5), held,
        prepare=_deaf_host, **STOPS[stop]
    )
    # it did stop blocked: most of the run is switches and NIs waiting
    assert counters["switch.blocked_cycles"] > 10_000
    assert counters["ni.blocked_cycles"] > 10_000
