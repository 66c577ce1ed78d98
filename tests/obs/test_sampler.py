"""Cycle sampler: cadence, sink streaming, network gauges."""

from __future__ import annotations

import pytest

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_workload
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import CycleSampler, register_network_gauges
from repro.obs.sinks import MetricsSink
from repro.sim.kernel import Simulator
from repro.traffic.multicast import SingleMulticast


class TestCycleSampler:
    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            CycleSampler(MetricsRegistry(), every=0)

    def test_samples_every_n_cycles_including_zero(self):
        registry = MetricsRegistry()
        ticks = {"n": 0}

        def gauge():
            ticks["n"] += 1
            return float(ticks["n"])

        registry.gauge("g", gauge)
        sim = Simulator(seed=1)
        sampler = CycleSampler(registry, every=3)
        sim.add_component(sampler)
        sim.run(10)  # cycles 0..9
        assert [cycle for cycle, _ in sampler.series] == [0, 3, 6, 9]
        assert ticks["n"] == 4  # gauges only evaluated on sample cycles

    def test_gauge_subset(self):
        registry = MetricsRegistry()
        registry.gauge("a", lambda: 1.0)
        registry.gauge("b", lambda: 2.0)
        sim = Simulator(seed=1)
        sampler = CycleSampler(registry, every=1, gauges=["a"])
        sim.add_component(sampler)
        sim.run(1)
        assert sampler.series == [(0, {"a": 1.0})]

    def test_streams_to_sink(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("g", lambda: 7.0)
        path = tmp_path / "m.jsonl"
        sink = MetricsSink(str(path))
        sim = Simulator(seed=1)
        sim.add_component(
            CycleSampler(registry, every=2, sink=sink, run="r1")
        )
        sim.run(4)
        sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # cycles 0 and 2
        assert '"run":"r1"' in lines[0]
        assert '"g":7.0' in lines[0]


class TestNetworkGauges:
    def test_cb_network_registers_all_three(self):
        network = build_network(SimulationConfig(num_hosts=16))
        registry = MetricsRegistry()
        register_network_gauges(network, registry)
        values = registry.sample_gauges()
        assert sorted(values) == [
            "cb.occupancy_chunks", "link.utilisation", "ni.injection_backlog"
        ]
        assert all(v == 0.0 for v in values.values())

    def test_occupancy_and_utilisation_move_under_traffic(self):
        config = SimulationConfig(num_hosts=16)
        registry = MetricsRegistry()
        network = build_network(config, metrics=registry)
        register_network_gauges(network, registry)
        sampler = CycleSampler(registry, every=10)
        network.sim.add_component(sampler)
        run_workload(
            network,
            SingleMulticast(
                source=0, degree=8, payload_flits=64,
                scheme=MulticastScheme.HARDWARE,
            ),
        )
        peaks = {
            name: max(values[name] for _, values in sampler.series)
            for name in ("cb.occupancy_chunks", "link.utilisation")
        }
        assert peaks["cb.occupancy_chunks"] > 0
        assert 0 < peaks["link.utilisation"] <= 1.0
        # the drained network reads zero (the *last sample* may predate
        # the final drain cycle — the sampler only looks every 10 cycles)
        assert registry.sample_gauges()["cb.occupancy_chunks"] == 0.0

    def test_ib_network_occupancy_gauge_reads_zero(self):
        network = build_network(
            SimulationConfig(
                num_hosts=16,
                switch_architecture=SwitchArchitecture.INPUT_BUFFER,
            )
        )
        registry = MetricsRegistry()
        register_network_gauges(network, registry)
        assert registry.sample_gauges()["cb.occupancy_chunks"] == 0.0


class TestSeriesFollowsTheFlitTimeline:
    """A span is staged whole at its first cycle — ``Link.flits_sent``
    and the NI's queue move then — but its flits leave one per cycle:
    the gauges read the timeline (``Link.flits_sent_by``,
    ``HostInterface.injection_backlog``), so the series is the per-flit
    reference's, on either kernel.  (Reading the staging-cycle state
    instead gets 71 of these 84 samples wrong in ``link.utilisation``
    and 12 in ``ni.injection_backlog``.)"""

    @staticmethod
    def series(packed, dense):
        from repro.traffic.unicast import UniformRandomUnicast

        config = SimulationConfig(
            num_hosts=16, seed=3, packed=packed, dense_kernel=dense
        )
        registry = MetricsRegistry()
        network = build_network(config, metrics=registry)
        register_network_gauges(network, registry)
        sampler = CycleSampler(registry, every=7)
        network.sim.add_component(sampler)
        run_workload(network, UniformRandomUnicast(
            load=0.3, payload_flits=24,
            warmup_cycles=100, measure_cycles=300,
        ))
        return sampler.series

    @pytest.mark.parametrize("dense", (False, True), ids=("active", "dense"))
    def test_production_series_is_the_reference_series(self, dense):
        series = self.series(packed=True, dense=dense)
        assert series == self.series(packed=False, dense=True)
        assert any(values["link.utilisation"] for _, values in series)
        assert any(values["ni.injection_backlog"] for _, values in series)


class TestFastForwardCarryForward:
    """The sampler's probe lane must survive idle-cycle fast-forward.

    On an idle-heavy run the active-set kernel jumps over the sampling
    grid; the kernel replays the skipped sample points (carry-forward),
    so the collected series must be bit-identical to the dense kernel's
    — including the windowed link-utilisation gauge, which reads
    ``sim.now`` at every sample.
    """

    @staticmethod
    def _run(dense):
        from repro.obs.profile import KernelProfiler
        from repro.traffic.unicast import UniformRandomUnicast

        config = SimulationConfig(num_hosts=16, seed=7)
        config.dense_kernel = dense
        network = build_network(config)
        profiler = KernelProfiler()
        network.sim.attach_profiler(profiler)
        registry = MetricsRegistry()
        register_network_gauges(network, registry)
        # a period that does not divide the warmup/measure windows, so
        # sample points land mid-gap, not on workload time marks
        sampler = CycleSampler(registry, every=37)
        network.sim.add_component(sampler)
        workload = UniformRandomUnicast(
            load=0.005,
            payload_flits=16,
            warmup_cycles=300,
            measure_cycles=600,
        )
        result = run_workload(network, workload)
        return result, sampler.series, profiler

    def test_series_bit_identical_to_dense_kernel(self):
        active_result, active_series, profiler = self._run(dense=False)
        dense_result, dense_series, _ = self._run(dense=True)
        assert active_result.cycles == dense_result.cycles
        assert active_series == dense_series
        # the comparison was not vacuous: the active kernel really did
        # jump over sample points and the grid really was walked
        assert profiler.cycles_skipped > 0
        assert len(active_series) >= active_result.cycles // 37

    def test_no_sample_cycle_is_ever_skipped(self):
        result, series, _ = self._run(dense=False)
        expected = list(range(0, result.cycles, 37))
        assert [cycle for cycle, _ in series] == expected
