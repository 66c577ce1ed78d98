"""Differential tests: the packed data plane against the object plane.

The packed data plane (span transport over preallocated int buffers, see
``docs/architecture.md``) is a pure performance optimisation — every
observable of a run must be bit-identical to the object plane that moves
one ``Flit`` instance per link per cycle.  This is the same contract —
and the same sweep, over the same rows of ``tests/differential.py`` — as
``tests/sim/test_active_set.py`` pins for the kernel layer: random
workloads on both switch architectures, both routing modes, and random
seeds, asserting the two planes agree on cycle counts, metric summaries,
per-host flit counts, and the kernel progress counter.

The two optimisation layers are independent toggles
(``SimulationConfig.packed`` / ``SimulationConfig.dense_kernel``), so
the sweep also crosses them: packed-on-dense must equal object-on-dense,
closing the square whose other sides the two differential suites pin.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.schemes import SwitchArchitecture
from repro.routing.base import MulticastRoutingMode
from repro.traffic.scenarios import SCENARIOS

from tests.differential import (
    CB,
    IB,
    ROW,
    SQUARE_EXAMPLES,
    SQUARE_ROWS,
    SYNCHRONOUS,
    Scenario,
    assert_observables_agree,
    flavour,
    sweep,
    telemetry,
)

#: the named scenarios checked at their real sizes (256 and 64 hosts);
#: the three left out are the long runs (their traffic classes are in
#: the harness' rows at 16 hosts)
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


class TestWholeSystemDifferential:
    @given(
        architecture=st.sampled_from(list(SwitchArchitecture)),
        mode=st.sampled_from(list(MulticastRoutingMode)),
        seed=st.integers(0, 2 ** 16),
        scenario=st.sampled_from(SQUARE_ROWS),
    )
    @sweep(12, SQUARE_ROWS, **SQUARE_EXAMPLES)
    def test_packed_matches_object_plane(
        self, runs, architecture, mode, seed, scenario
    ):
        config = scenario.config(architecture, multicast_mode=mode, seed=seed)
        assert_observables_agree(
            runs, scenario, config, "production", "reference-active"
        )

    @given(
        architecture=st.sampled_from(list(SwitchArchitecture)),
        seed=st.integers(0, 2 ** 16),
        scenario=st.sampled_from(SQUARE_ROWS),
    )
    @sweep(
        6, SQUARE_ROWS, architecture=(CB, IB), seed=range(len(SQUARE_ROWS))
    )
    def test_planes_agree_on_the_dense_kernel_too(
        self, runs, architecture, seed, scenario
    ):
        # the packed toggle must be orthogonal to the kernel toggle:
        # together with test_active_set.py this closes the square
        # dense/object == dense/packed == active/packed == active/object
        config = scenario.config(architecture, seed=seed)
        assert_observables_agree(
            runs, scenario, config, "dense", "ground-truth"
        )

    @pytest.mark.parametrize("architecture", list(SwitchArchitecture))
    @pytest.mark.parametrize(
        "scenario", REAL_SIZE_SCENARIOS, ids=lambda scenario: scenario.name
    )
    def test_named_scenario_matches_dense_object_reference(
        self, runs, scenario, architecture
    ):
        # both optimisation layers at once, at the sizes the profiler
        # and the ledger run: production flavour (active-set kernel,
        # packed plane) against dense_kernel=True, packed=False
        row = Scenario(scenario.name, None, {}, scenario.make_workload)
        config = scenario.make_config(reference=False).derived(
            switch_architecture=architecture
        )
        assert_observables_agree(
            runs, row, config, "production", "ground-truth"
        )

    def test_synchronous_replication_matches_object_plane(self, runs):
        # SYNCHRONOUS is only modelled on the input-buffer switch, so it
        # cannot ride the hypothesis sweep above
        scenario = ROW["hw-multicast"]
        config = scenario.config(IB, seed=5, **SYNCHRONOUS)
        # the production run is test_active_set.py's too
        assert_observables_agree(
            runs, scenario, config, "production", "reference-active",
            shared=2,
        )

    def test_self_check_run_matches_object_plane(self, runs):
        scenario = ROW["slow-mcast-stream"]
        config = scenario.config(self_check=True, seed=9)
        # the production run is test_active_set.py's too
        assert_observables_agree(
            runs, scenario, config, "production", "reference-active",
            shared=2,
        )

    def test_traced_run_emits_byte_identical_events(self, runs):
        # tracing exercises the packed plane's flit_repr conversion
        # boundary: the per-flit trace stream — not just the end-of-run
        # summary — must be byte-identical to the object plane's, once
        # on the timeline: a traced run commits spans like any other, so
        # a `flit_in` record stands for `count` flits and is written
        # when the switch next looks (see test_plane_telemetry)
        scenario = ROW["hot-unicast"]
        config = scenario.config(seed=3)

        def traced(name):
            return runs.run(telemetry, scenario, flavour(config, name))

        assert traced("production") == traced("reference-active")
