"""Bit-identical replay for identical seeds; divergence across seeds."""

from __future__ import annotations

import itertools
import time

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation
from repro.traffic.bimodal import BimodalTraffic
from repro.traffic.multicast import MultipleMulticastBurst


def fingerprint(result):
    collector = result.collector
    return (
        result.cycles,
        collector.messages_created,
        tuple(
            (tc.value, stats.deliveries, round(stats.latency.mean, 9))
            for tc, stats in sorted(
                collector.classes.items(), key=lambda kv: kv[0].value
            )
            if stats.deliveries
        ),
        tuple(
            (op.op_id, op.completed_cycle)
            for op in collector.completed_operations()
        ),
    )


def bimodal_run(seed, architecture=SwitchArchitecture.CENTRAL_BUFFER):
    config = SimulationConfig(
        num_hosts=16, seed=seed, switch_architecture=architecture
    )
    workload = BimodalTraffic(
        load=0.25, multicast_fraction=0.2, degree=4, payload_flits=16,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=200, measure_cycles=1_500,
    )
    return run_simulation(config, workload, max_cycles=40_000)


class TestDeterminism:
    def test_same_seed_same_everything(self):
        assert fingerprint(bimodal_run(7)) == fingerprint(bimodal_run(7))

    def test_different_seed_different_traffic(self):
        assert fingerprint(bimodal_run(7)) != fingerprint(bimodal_run(8))

    def test_deterministic_on_input_buffer_switch(self):
        a = bimodal_run(3, SwitchArchitecture.INPUT_BUFFER)
        b = bimodal_run(3, SwitchArchitecture.INPUT_BUFFER)
        assert fingerprint(a) == fingerprint(b)

    def test_burst_replay(self):
        def burst(seed):
            return run_simulation(
                SimulationConfig(num_hosts=16, seed=seed),
                MultipleMulticastBurst(
                    num_multicasts=4, degree=5, payload_flits=32,
                    scheme=MulticastScheme.SOFTWARE,
                ),
            )

        assert fingerprint(burst(5)) == fingerprint(burst(5))


class TestWallClockIsInert:
    def test_runs_ignore_the_wall_clock(self, monkeypatch):
        # results are a function of config and seed: with every clock of
        # the time module jumping an hour per read, a run is unchanged
        expected = [fingerprint(bimodal_run(5, arch)) for arch in
                    SwitchArchitecture]
        hours = itertools.count(1)
        for name, hour in (
            ("time", 3600.0), ("monotonic", 3600.0),
            ("perf_counter", 3600.0), ("process_time", 3600.0),
            ("time_ns", 3600 * 10**9), ("monotonic_ns", 3600 * 10**9),
            ("perf_counter_ns", 3600 * 10**9),
            ("process_time_ns", 3600 * 10**9),
        ):
            real = getattr(time, name)
            monkeypatch.setattr(
                time, name,
                lambda real=real, hour=hour: real() + hour * next(hours),
            )
        assert [fingerprint(bimodal_run(5, arch)) for arch in
                SwitchArchitecture] == expected
