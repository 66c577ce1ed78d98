"""Multicast workloads: bursts, single operations, and open-loop streams."""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.core.schemes import MulticastScheme
from repro.flits.destset import DestinationSet
from repro.traffic.base import OpenLoopWorkload, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network


def _random_destinations(
    rng, universe: int, source: int, degree: int
) -> DestinationSet:
    """``degree`` distinct destinations, excluding the source."""
    if degree >= universe:
        raise ValueError(
            f"degree {degree} does not fit a system of {universe} hosts"
        )
    others = list(range(universe))
    others.remove(source)
    return DestinationSet.from_ids(universe, rng.sample(others, degree))


class SingleMulticast(Workload):
    """One multicast operation on an otherwise idle network.

    The cleanest way to measure base multicast latency (degree and
    message-length sweeps, E2/E3).
    """

    name = "single_multicast"

    def __init__(
        self,
        source: int,
        payload_flits: int,
        scheme: MulticastScheme,
        destinations: Optional[Sequence[int]] = None,
        degree: Optional[int] = None,
        start_cycle: int = 0,
    ) -> None:
        if (destinations is None) == (degree is None):
            raise ValueError("give exactly one of destinations or degree")
        self.source = source
        self.payload_flits = payload_flits
        self.scheme = scheme
        self.destinations = list(destinations) if destinations else None
        self.degree = degree
        self.start_cycle = start_cycle

    def start(self, network: "Network") -> None:
        network.collector.set_sample_window(0)
        if self.destinations is not None:
            dest_set = DestinationSet.from_ids(
                network.num_hosts, self.destinations
            )
        else:
            rng = network.sim.rng.stream("workload.single_multicast")
            dest_set = _random_destinations(
                rng, network.num_hosts, self.source, self.degree
            )

        def fire() -> None:
            network.nodes[self.source].post_multicast(
                dest_set, self.payload_flits, self.scheme
            )

        network.sim.schedule_at(self.start_cycle, fire)

    def finished(self, network: "Network") -> bool:
        collector = network.collector
        return (
            network.sim.now > self.start_cycle
            and collector.operations_created > 0
            and collector.outstanding_operations == 0
            and collector.outstanding_messages == 0
        )

    def max_cycles_hint(self) -> int:
        return 2_000_000

    def time_marks(self, network: "Network") -> Tuple[int, ...]:
        # finished() needs now to pass the posting cycle
        return (self.start_cycle + 1,)


class MultipleMulticastBurst(Workload):
    """*m* simultaneous multicasts from distinct random sources (E1).

    All operations are posted in the same cycle; the experiment ends when
    the last destination of the last operation has received its copy —
    the paper's multiple-multicast scenario, where concurrent worms
    contend for switch buffers and links.
    """

    name = "multiple_multicast"

    def __init__(
        self,
        num_multicasts: int,
        degree: int,
        payload_flits: int,
        scheme: MulticastScheme,
        start_cycle: int = 0,
    ) -> None:
        if num_multicasts < 1:
            raise ValueError("num_multicasts must be >= 1")
        self.num_multicasts = num_multicasts
        self.degree = degree
        self.payload_flits = payload_flits
        self.scheme = scheme
        self.start_cycle = start_cycle

    def start(self, network: "Network") -> None:
        if self.num_multicasts > network.num_hosts:
            raise ValueError("more multicasts than hosts to source them")
        network.collector.set_sample_window(0)
        rng = network.sim.rng.stream("workload.multiple_multicast")
        sources = rng.sample(range(network.num_hosts), self.num_multicasts)
        plans = [
            (
                source,
                _random_destinations(
                    rng, network.num_hosts, source, self.degree
                ),
            )
            for source in sources
        ]

        def fire() -> None:
            for source, dest_set in plans:
                network.nodes[source].post_multicast(
                    dest_set, self.payload_flits, self.scheme
                )

        network.sim.schedule_at(self.start_cycle, fire)

    def finished(self, network: "Network") -> bool:
        collector = network.collector
        return (
            network.sim.now > self.start_cycle
            and collector.operations_created == self.num_multicasts
            and collector.outstanding_operations == 0
            and collector.outstanding_messages == 0
        )

    def max_cycles_hint(self) -> int:
        return 5_000_000

    def time_marks(self, network: "Network") -> Tuple[int, ...]:
        # finished() needs now to pass the posting cycle
        return (self.start_cycle + 1,)


class RandomMulticastStream(OpenLoopWorkload):
    """Open-loop stream of multicasts at a per-host operation rate.

    Each host starts multicast operations with Poisson arrivals; used to
    study sustained multicast throughput rather than one-shot latency.
    """

    name = "multicast_stream"
    rng_stream = "workload.multicast_stream"

    def __init__(
        self,
        ops_per_host_per_kilocycle: float,
        degree: int,
        payload_flits: int,
        scheme: MulticastScheme,
        warmup_cycles: int = 2_000,
        measure_cycles: int = 10_000,
    ) -> None:
        if ops_per_host_per_kilocycle <= 0:
            raise ValueError("operation rate must be positive")
        super().__init__(warmup_cycles, measure_cycles)
        self.rate = ops_per_host_per_kilocycle
        self.degree = degree
        self.payload_flits = payload_flits
        self.scheme = scheme

    def _mean_gap(self, network: "Network") -> float:
        return 1_000.0 / self.rate

    def _post(self, network: "Network", host: int, rng: Random) -> None:
        dest_set = _random_destinations(
            rng, network.num_hosts, host, self.degree
        )
        network.nodes[host].post_multicast(
            dest_set, self.payload_flits, self.scheme
        )
