"""End-to-end simulation facade."""

from __future__ import annotations

import pytest

from repro.core.schemes import MulticastScheme
from repro.errors import CycleBudgetExhausted, SimulationError
from repro.flits.packet import TrafficClass
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation, run_workload
from repro.traffic.multicast import MultipleMulticastBurst, SingleMulticast
from repro.traffic.unicast import UniformRandomUnicast


class TestRunSimulation:
    def test_single_multicast_completes(self):
        result = run_simulation(
            SimulationConfig(num_hosts=16, self_check=True),
            SingleMulticast(
                source=0, degree=4, payload_flits=16,
                scheme=MulticastScheme.HARDWARE,
            ),
        )
        assert result.completed
        assert result.op_last_latency.count == 1
        assert result.collector.operations_created == 1

    def test_burst_completes_all_operations(self):
        result = run_simulation(
            SimulationConfig(num_hosts=16, self_check=True),
            MultipleMulticastBurst(
                num_multicasts=4, degree=4, payload_flits=16,
                scheme=MulticastScheme.HARDWARE,
            ),
        )
        assert result.op_last_latency.count == 4

    def test_budget_exhaustion_reports_incomplete(self):
        result = run_simulation(
            SimulationConfig(num_hosts=16),
            UniformRandomUnicast(
                load=0.9, payload_flits=32,
                warmup_cycles=100, measure_cycles=2_000,
            ),
            max_cycles=2_500,
        )
        assert not result.completed
        assert result.cycles >= 2_500

    def test_only_budget_exhaustion_becomes_data(self):
        # a probe that fails to advance is a fault in the run, not a
        # saturated network: it must surface, not read completed=False
        class StuckProbe:
            next_cycle = 0

            def sample(self, cycle):
                pass

        network = build_network(SimulationConfig(num_hosts=16))
        network.sim.add_probe(StuckProbe())
        with pytest.raises(SimulationError, match="did not advance") as err:
            run_workload(network, SingleMulticast(
                source=0, degree=4, payload_flits=16,
                scheme=MulticastScheme.HARDWARE,
            ))
        assert not isinstance(err.value, CycleBudgetExhausted)

    def test_summary_keys(self):
        result = run_simulation(
            SimulationConfig(num_hosts=16),
            SingleMulticast(
                source=1, degree=3, payload_flits=8,
                scheme=MulticastScheme.SOFTWARE,
            ),
        )
        summary = result.summary()
        assert summary["completed"] == 1.0
        assert summary["operations"] == 1.0
        assert "op_last_latency_mean" in summary
        assert "unicast_latency_mean" in summary

    def test_throughput_accessor(self):
        result = run_simulation(
            SimulationConfig(num_hosts=16),
            UniformRandomUnicast(
                load=0.1, payload_flits=16,
                warmup_cycles=200, measure_cycles=1_000,
            ),
        )
        throughput = result.throughput(TrafficClass.UNICAST, 1_000)
        assert 0.0 < throughput < 1.0

    def test_latency_accessors_match_collector(self):
        result = run_simulation(
            SimulationConfig(num_hosts=16),
            SingleMulticast(
                source=0, degree=4, payload_flits=16,
                scheme=MulticastScheme.HARDWARE,
            ),
        )
        classes = result.collector.classes
        assert result.unicast_latency is classes[TrafficClass.UNICAST].latency
        assert result.op_last_latency is result.collector.op_last_latency
        assert result.op_average_latency.count == 1

    def test_a_result_reads_its_network_but_keeps_its_cycle(self):
        network = build_network(SimulationConfig(num_hosts=16))

        def multicast(start_cycle):
            return SingleMulticast(
                source=0, degree=4, payload_flits=16,
                scheme=MulticastScheme.HARDWARE, start_cycle=start_cycle,
            )

        first = run_workload(network, multicast(0))
        assert first.config is network.config
        assert first.collector is network.collector
        cycles = first.cycles
        second = run_workload(network, multicast(cycles))
        assert second.cycles > cycles == first.cycles
