"""Bimodal traffic: background unicast plus a multicast component (E4).

The paper's bimodal experiments measure how a multicast implementation
degrades the *other* traffic: hosts generate a Poisson stream in which a
fraction of messages are multicasts and the rest are ordinary unicasts.
Because a software multicast turns one operation into ~d unicasts with
fresh start-ups, it loads the network far more than one multidestination
worm — the effect this workload exposes.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING

from repro.core.schemes import MulticastScheme
from repro.traffic.base import OpenLoopWorkload, uniform_other_host
from repro.traffic.multicast import _random_destinations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network


class BimodalTraffic(OpenLoopWorkload):
    """Mixed unicast/multicast open-loop traffic.

    Parameters
    ----------
    load:
        Offered fraction of each host's injection bandwidth, computed
        from the *generation* rate with unicast-sized messages — the same
        nominal load therefore produces identical message streams for
        hardware and software multicast, isolating the scheme's impact.
    multicast_fraction:
        Probability that a generated message is a multicast operation.
    degree:
        Destinations per multicast.
    scheme:
        How multicasts are implemented (unicasts are unaffected).
    """

    name = "bimodal"
    rng_stream = "workload.bimodal"
    DRAIN_FACTOR = 30

    def __init__(
        self,
        load: float,
        multicast_fraction: float = 1.0 / 16.0,
        degree: int = 8,
        payload_flits: int = 32,
        scheme: MulticastScheme = MulticastScheme.HARDWARE,
        warmup_cycles: int = 2_000,
        measure_cycles: int = 10_000,
    ) -> None:
        if not 0.0 <= multicast_fraction <= 1.0:
            raise ValueError("multicast_fraction must be within [0, 1]")
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        super().__init__(warmup_cycles, measure_cycles)
        self.load = load
        self.multicast_fraction = multicast_fraction
        self.degree = degree
        self.payload_flits = payload_flits
        self.scheme = scheme

    def _post(self, network: "Network", host: int, rng: Random) -> None:
        if rng.random() < self.multicast_fraction:
            dest_set = _random_destinations(
                rng, network.num_hosts, host, self.degree
            )
            network.nodes[host].post_multicast(
                dest_set, self.payload_flits, self.scheme
            )
        else:
            destination = uniform_other_host(rng, network.num_hosts, host)
            network.nodes[host].post_unicast(destination, self.payload_flits)
