"""Differential tests: the packed data plane against the object plane.

The packed data plane (span transport over preallocated int buffers, see
``docs/architecture.md``) is a pure performance optimisation — every
observable of a run must be bit-identical to the object plane that moves
one ``Flit`` instance per link per cycle.  This is the same contract —
and the same sweep shape — as ``tests/sim/test_active_set.py`` pins for
the kernel layer: random workloads on both switch architectures, both
routing modes, and random seeds, asserting the two planes agree on cycle
counts, metric summaries, per-host flit counts, and the kernel progress
counter.

The two optimisation layers are independent toggles
(``SimulationConfig.packed`` / ``SimulationConfig.dense_kernel``), so
the sweep also crosses them: packed-on-dense must equal object-on-dense,
closing the square whose other sides the two differential suites pin.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.routing.base import MulticastRoutingMode
from repro.sim.trace import Tracer
from repro.switches.base import ReplicationMode
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import RandomMulticastStream, SingleMulticast
from repro.traffic.scenarios import SCENARIOS
from repro.traffic.unicast import UniformRandomUnicast

from tests.obs.test_plane_telemetry import per_flit

N = 16

#: (label, workload factory) — factories because workloads are stateful
#: and each data-plane flavour needs a fresh instance.  The set covers
#: unicast (low and saturating load), hardware and software multicast
#: (the SW scheme moves unicast worms under a collective protocol), a
#: multicast stream, and tree-saturating hotspot traffic.
WORKLOADS = (
    ("low-load-unicast", lambda: UniformRandomUnicast(
        load=0.01, payload_flits=8,
        warmup_cycles=100, measure_cycles=600,
    )),
    ("hot-unicast", lambda: UniformRandomUnicast(
        load=0.6, payload_flits=8,
        warmup_cycles=100, measure_cycles=400,
    )),
    ("hw-multicast", lambda: SingleMulticast(
        source=3, degree=9, payload_flits=24,
        scheme=MulticastScheme.HARDWARE,
    )),
    ("sw-multicast", lambda: SingleMulticast(
        source=1, degree=6, payload_flits=16,
        scheme=MulticastScheme.SOFTWARE,
    )),
    ("mcast-stream", lambda: RandomMulticastStream(
        ops_per_host_per_kilocycle=0.5, degree=5, payload_flits=16,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=100, measure_cycles=500,
    )),
    ("hotspot", lambda: HotspotTraffic(
        load=0.5, hotspot_fraction=0.4, payload_flits=8,
        warmup_cycles=100, measure_cycles=300,
    )),
)


#: the named scenarios checked at their real sizes (256 and 64 hosts);
#: the three left out are the long runs (their traffic classes are in
#: WORKLOADS above at 16 hosts)
REAL_SIZE_SCENARIOS = tuple(
    scenario for scenario in SCENARIOS
    if scenario.name in {
        "e5-low-load-smoke",
        "e5-broadcast",
        "e5-quarter",
        "saturation-stream",
        "saturation-hotspot",
    }
)


def observables(config: SimulationConfig, make_workload):
    """Every observable of one run: cycles, summary, per-host flit
    counts, and the kernel's progress counter."""
    network = build_network(config)
    result = run_workload(network, make_workload())
    return (
        result.cycles,
        result.summary(),
        tuple(ni.flits_ejected for ni in network.interfaces),
        network.sim.progress,
    )


def assert_planes_agree(config: SimulationConfig, make_workload):
    packed = observables(config.derived(packed=True), make_workload)
    objects = observables(config.derived(packed=False), make_workload)
    assert packed == objects


class TestWholeSystemDifferential:
    @given(
        architecture=st.sampled_from(list(SwitchArchitecture)),
        mode=st.sampled_from(list(MulticastRoutingMode)),
        seed=st.integers(0, 2 ** 16),
        workload=st.sampled_from(WORKLOADS),
    )
    @settings(max_examples=12, deadline=None)
    def test_packed_matches_object_plane(
        self, architecture, mode, seed, workload
    ):
        _, make_workload = workload
        config = SimulationConfig(
            num_hosts=N,
            switch_architecture=architecture,
            multicast_mode=mode,
            seed=seed,
        )
        assert_planes_agree(config, make_workload)

    @given(
        architecture=st.sampled_from(list(SwitchArchitecture)),
        seed=st.integers(0, 2 ** 16),
        workload=st.sampled_from(WORKLOADS),
    )
    @settings(max_examples=6, deadline=None)
    def test_planes_agree_on_the_dense_kernel_too(
        self, architecture, seed, workload
    ):
        # the packed toggle must be orthogonal to the kernel toggle:
        # together with test_active_set.py this closes the square
        # dense/object == dense/packed == active/packed == active/object
        _, make_workload = workload
        config = SimulationConfig(
            num_hosts=N,
            switch_architecture=architecture,
            dense_kernel=True,
            seed=seed,
        )
        assert_planes_agree(config, make_workload)

    @pytest.mark.parametrize("architecture", list(SwitchArchitecture))
    @pytest.mark.parametrize(
        "scenario", REAL_SIZE_SCENARIOS, ids=lambda scenario: scenario.name
    )
    def test_named_scenario_matches_dense_object_reference(
        self, scenario, architecture
    ):
        # both optimisation layers at once, at the sizes the profiler
        # and the ledger run: production flavour (active-set kernel,
        # packed plane) against dense_kernel=True, packed=False
        def run(reference: bool):
            config = scenario.make_config(reference).derived(
                switch_architecture=architecture
            )
            return observables(config, scenario.make_workload)

        assert run(reference=False) == run(reference=True)

    def test_synchronous_replication_matches_object_plane(self):
        # SYNCHRONOUS is only modelled on the input-buffer switch, so it
        # cannot ride the hypothesis sweep above
        config = SimulationConfig(
            num_hosts=N,
            switch_architecture=SwitchArchitecture.INPUT_BUFFER,
            replication=ReplicationMode.SYNCHRONOUS,
            seed=5,
        )
        assert_planes_agree(config, WORKLOADS[2][1])

    def test_self_check_run_matches_object_plane(self):
        config = SimulationConfig(num_hosts=N, self_check=True, seed=9)
        assert_planes_agree(config, WORKLOADS[4][1])

    def test_traced_run_emits_byte_identical_events(self):
        # tracing exercises the packed plane's flit_repr conversion
        # boundary: the per-flit trace stream — not just the end-of-run
        # summary — must be byte-identical to the object plane's, once
        # on the timeline: a traced run commits spans like any other, so
        # a `flit_in` record stands for `count` flits and is written
        # when the switch next looks (see test_plane_telemetry)
        def traced(packed: bool):
            config = SimulationConfig(num_hosts=N, seed=3, packed=packed)
            tracer = Tracer()
            network = build_network(config, tracer=tracer)
            result = run_workload(network, WORKLOADS[1][1]())
            events = sorted(
                event for r in tracer.records for event in per_flit(r)
            )
            return result.cycles, result.summary(), events

        assert traced(packed=True) == traced(packed=False)
