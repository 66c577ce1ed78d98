"""Point-to-point background workloads."""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Optional, Tuple

from repro.traffic.base import OpenLoopWorkload, Workload, uniform_other_host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network


class UniformRandomUnicast(OpenLoopWorkload):
    """Open-loop uniform random unicast traffic at a given offered load.

    Every host generates messages with Poisson arrivals; each message
    targets a uniformly random other host.
    """

    name = "uniform_unicast"
    rng_stream = "workload.unicast"
    DRAIN_SLACK = 200_000

    def __init__(
        self,
        load: float,
        payload_flits: int = 32,
        warmup_cycles: int = 2_000,
        measure_cycles: int = 10_000,
    ) -> None:
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        super().__init__(warmup_cycles, measure_cycles)
        self.load = load
        self.payload_flits = payload_flits

    def _post(self, network: "Network", host: int, rng: Random) -> None:
        destination = uniform_other_host(rng, network.num_hosts, host)
        network.nodes[host].post_unicast(destination, self.payload_flits)


class PermutationTraffic(Workload):
    """Each host sends one message to a fixed permutation partner.

    A closed, finite workload useful for validation: with the bit-reversal
    or shift permutations on a MIN the zero-load latency of every message
    is analytically known.
    """

    name = "permutation"

    def __init__(
        self,
        payload_flits: int = 32,
        shift: int = 1,
        start_cycle: int = 0,
        permutation: Optional[list] = None,
    ) -> None:
        if payload_flits < 1:
            raise ValueError("payload_flits must be >= 1")
        self.payload_flits = payload_flits
        self.shift = shift
        self.start_cycle = start_cycle
        self.permutation = permutation

    def start(self, network: "Network") -> None:
        network.collector.set_sample_window(0)
        n = network.num_hosts
        mapping = self.permutation or [
            (host + self.shift) % n for host in range(n)
        ]
        if sorted(mapping) != list(range(n)):
            raise ValueError("mapping is not a permutation")

        def fire() -> None:
            for host, destination in enumerate(mapping):
                if destination != host:
                    network.nodes[host].post_unicast(
                        destination, self.payload_flits
                    )

        network.sim.schedule_at(self.start_cycle, fire)

    def finished(self, network: "Network") -> bool:
        return (
            network.sim.now > self.start_cycle
            and network.collector.outstanding_messages == 0
        )

    def max_cycles_hint(self) -> int:
        return 1_000_000

    def time_marks(self, network: "Network") -> Tuple[int, ...]:
        # finished() needs now to pass the injection cycle
        return (self.start_cycle + 1,)
