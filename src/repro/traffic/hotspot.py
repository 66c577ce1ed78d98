"""Hot-spot traffic (the paper's "we are also studying" pattern).

A fraction of all unicast messages target one *hot* host (a file server,
a lock home, a reduction root); the rest are uniform random.  Hot-spot
traffic is the classic stress test for buffer organisations: tree
saturation around the hot module fills buffers along whole paths, and a
shared central buffer absorbs the transient far better than statically
partitioned input buffers.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING

from repro.traffic.base import OpenLoopWorkload, uniform_other_host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network


class HotspotTraffic(OpenLoopWorkload):
    """Uniform unicast background with a hot destination.

    Parameters
    ----------
    load:
        Offered fraction of each host's injection bandwidth.
    hotspot_fraction:
        Probability a message targets the hot host instead of a uniform
        destination.
    hotspot_host:
        The hot destination (never generates hot traffic to itself).
    """

    name = "hotspot"
    rng_stream = "workload.hotspot"
    DRAIN_FACTOR = 40

    def __init__(
        self,
        load: float,
        hotspot_fraction: float = 0.05,
        hotspot_host: int = 0,
        payload_flits: int = 32,
        warmup_cycles: int = 2_000,
        measure_cycles: int = 10_000,
    ) -> None:
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be within [0, 1]")
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        super().__init__(warmup_cycles, measure_cycles)
        self.load = load
        self.hotspot_fraction = hotspot_fraction
        self.hotspot_host = hotspot_host
        self.payload_flits = payload_flits

    def start(self, network: "Network") -> None:
        if not 0 <= self.hotspot_host < network.num_hosts:
            raise ValueError(
                f"hotspot host {self.hotspot_host} outside the system"
            )
        super().start(network)

    def _post(self, network: "Network", host: int, rng: Random) -> None:
        hot = (
            rng.random() < self.hotspot_fraction
            and host != self.hotspot_host
        )
        if hot:
            destination = self.hotspot_host
        else:
            destination = uniform_other_host(rng, network.num_hosts, host)
        network.nodes[host].post_unicast(destination, self.payload_flits)
