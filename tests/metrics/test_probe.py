"""Post-run network probes."""

from __future__ import annotations

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.metrics.probe import central_buffer_occupancy_by_level
from repro.network.builder import build_network
from repro.network.config import SimulationConfig, TopologyKind
from repro.network.simulation import run_workload
from repro.traffic.multicast import MultipleMulticastBurst


def run_burst(**overrides):
    config = SimulationConfig(num_hosts=16, **overrides)
    network = build_network(config)
    workload = MultipleMulticastBurst(
        num_multicasts=4, degree=5, payload_flits=32,
        scheme=MulticastScheme.HARDWARE,
    )
    run_workload(network, workload, max_cycles=60_000)
    return network


class TestCentralBufferOccupancy:
    def test_by_level_covers_all_levels(self):
        network = run_burst()
        by_level = central_buffer_occupancy_by_level(network)
        assert sorted(by_level) == [0, 1]
        assert all(value >= 0 for value in by_level.values())

    def test_by_level_rejects_non_bmin(self):
        config = SimulationConfig(
            num_hosts=16,
            topology=TopologyKind.IRREGULAR,
            irregular_switches=8,
        )
        network = build_network(config)
        with pytest.raises(TypeError):
            central_buffer_occupancy_by_level(network)

    def test_by_level_rejects_non_central_buffer_switches(self):
        config = SimulationConfig(
            num_hosts=16,
            switch_architecture=SwitchArchitecture.INPUT_BUFFER,
        )
        network = build_network(config)
        with pytest.raises(TypeError, match="central-buffer"):
            central_buffer_occupancy_by_level(network)

