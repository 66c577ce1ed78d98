"""Named scenarios: a system size plus traffic, fixed once.

``python -m repro profile --scenario NAME`` runs these, and
``tests/sim/test_packed_differential.py`` asserts on them that the
production flavour (active-set kernel, packed data plane) is
bit-identical to the ``dense_kernel=True, packed=False`` reference.
Names are stable; how fast they run is the ledger's question
(``benchmarks/ledger``, see ``docs/performance.md``), not this module's.

``e5-low-load`` / ``e5-low-load-smoke``
    The paper's E5 system-size setting (256 hosts, central-buffer
    switches) under low-rate background unicast — long idle gaps, where
    the active-set kernel fast-forwards most cycles; 10k measured
    cycles, 4k in the ``-smoke`` cut.
``e5-mcast-stream``
    Low-rate 256-host hardware-multicast stream (E5's traffic class).
``e5-broadcast`` / ``e5-quarter``
    One-shot E5 multicast latency scenarios (255 simulated cycles,
    dominated by busy ticks).
``saturation``
    64 hosts at 0.9 offered load: nearly every component is awake
    nearly every cycle.
``saturation-stream``
    The same saturated system moving long (64-flit) packets, so flit
    movement dominates routing.
``saturation-hotspot``
    64 hosts driven past the saturation point of one hot destination
    (tree saturation): the bottleneck link runs at 100% while the
    backpressured rest of the system sits credit-blocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core.schemes import MulticastScheme
from repro.network.config import SimulationConfig
from repro.traffic.base import Workload
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.multicast import RandomMulticastStream, SingleMulticast
from repro.traffic.unicast import UniformRandomUnicast


@dataclass(frozen=True)
class Scenario:
    """One named case: a config/workload pair runnable on both flavours."""

    name: str
    num_hosts: int
    make_workload: Callable[[], Workload]

    def make_config(self, reference: bool) -> SimulationConfig:
        """Reference: dense kernel + object flits; else active + packed."""
        config = SimulationConfig(num_hosts=self.num_hosts, seed=1)
        config.dense_kernel = reference
        config.packed = not reference
        return config


def _low_load_unicast(measure_cycles: int) -> Callable[[], Workload]:
    def make() -> Workload:
        return UniformRandomUnicast(
            load=0.005,
            payload_flits=16,
            warmup_cycles=1_000,
            measure_cycles=measure_cycles,
        )
    return make


def _mcast_stream() -> Workload:
    return RandomMulticastStream(
        ops_per_host_per_kilocycle=0.01,
        degree=32,
        payload_flits=64,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=1_000,
        measure_cycles=8_000,
    )


def _broadcast() -> Workload:
    return SingleMulticast(
        source=0, degree=255, payload_flits=64,
        scheme=MulticastScheme.HARDWARE,
    )


def _quarter() -> Workload:
    return SingleMulticast(
        source=0, degree=64, payload_flits=64,
        scheme=MulticastScheme.HARDWARE,
    )


def _saturation() -> Workload:
    return UniformRandomUnicast(
        load=0.9,
        payload_flits=16,
        warmup_cycles=500,
        measure_cycles=2_000,
    )


def _saturation_stream() -> Workload:
    return UniformRandomUnicast(
        load=0.9,
        payload_flits=64,
        warmup_cycles=500,
        measure_cycles=2_000,
    )


def _saturation_hotspot() -> Workload:
    # 25 hosts' worth of offered traffic funnelled at one destination:
    # far past the hot link's saturation point, so the run ends with a
    # long tree-saturated drain at exactly 1 flit/cycle
    return HotspotTraffic(
        load=0.5,
        hotspot_fraction=0.4,
        payload_flits=32,
        warmup_cycles=500,
        measure_cycles=1_000,
    )


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("e5-low-load", 256, _low_load_unicast(10_000)),
    Scenario("e5-low-load-smoke", 256, _low_load_unicast(4_000)),
    Scenario("e5-mcast-stream", 256, _mcast_stream),
    Scenario("e5-broadcast", 256, _broadcast),
    Scenario("e5-quarter", 256, _quarter),
    Scenario("saturation", 64, _saturation),
    Scenario("saturation-stream", 64, _saturation_stream),
    Scenario("saturation-hotspot", 64, _saturation_hotspot),
)
