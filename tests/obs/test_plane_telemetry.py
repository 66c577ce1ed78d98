"""Telemetry agrees bit-for-bit across the data planes.

The production switches and NI move spans and the per-flit reference
(``repro.reference``) moves one ``Flit`` per call, so each plane has its
own copy of the emit sites that sit on a flit move: the ``flit_in``,
``inject_start`` and ``packet_delivered`` tracer events and the
``switch.flits_forwarded``, ``switch.blocked_cycles`` and ``ni.*``
counters.  Every other event and counter comes from a decision method
the planes share.  With tracer *and* registry enabled the two planes
must agree on the full event stream and on every counter *value* — the
dense per-cycle ``blocked_cycles`` counters included (see
docs/observability.md) — on both architectures and both kernels, over
workloads that between them reach every plane-specific site: delete any
one emit or increment from either plane and a case below fails.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.registry import MetricsRegistry
from repro.sim.trace import Tracer
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import RandomMulticastStream
from repro.traffic.unicast import UniformRandomUnicast

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


def telemetry(architecture, workload, packed, dense):
    """Everything an observed run reports: cycles, summary, the event
    stream and every counter value."""
    config = SimulationConfig(
        num_hosts=16, seed=5, switch_architecture=architecture,
        packed=packed, dense_kernel=dense,
    )
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)
    network = build_network(config, tracer=tracer, metrics=registry)
    result = run_workload(network, WORKLOADS[workload]())
    assert tracer.dropped_count == 0
    events = [
        (r.cycle, r.source, r.event, r.details) for r in tracer.records
    ]
    counters = {
        name: counter.value for name, counter in registry.counters.items()
    }
    return result.cycles, result.summary(), events, counters


@pytest.mark.parametrize("dense", (False, True), ids=("active", "dense"))
@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("architecture", (CB, IB), ids=("cb", "ib"))
def test_planes_report_the_same(
    architecture, workload, dense
):
    production = telemetry(architecture, workload, packed=True, dense=dense)
    reference = telemetry(architecture, workload, packed=False, dense=dense)
    for ours, theirs in zip(production, reference):
        assert ours == theirs
    _, _, events, counters = production
    seen = {event for _, _, event, _ in events}
    seen.update(name for name, value in counters.items() if value > 0)
    expected = ALWAYS + ALSO.get((workload, architecture), ())
    assert not [name for name in expected if name not in seen]
