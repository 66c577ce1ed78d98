"""The workload contract.

A workload schedules message generation onto a built network and decides
when the experiment is over.  Workloads never touch flits or switches —
they talk to :class:`~repro.host.node.HostNode` objects only, exactly as
application software would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random
from typing import TYPE_CHECKING, Tuple

from repro.traffic.schedules import PoissonArrivals, mean_gap_for_load

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network


class Workload(ABC):
    """Drives message generation for one experiment run."""

    #: short identifier used in reports
    name: str = "workload"

    @abstractmethod
    def start(self, network: "Network") -> None:
        """Schedule the workload's initial events on the network's kernel.

        Implementations should also call
        ``network.collector.set_sample_window(...)`` so warm-up traffic is
        excluded from statistics.
        """

    @abstractmethod
    def finished(self, network: "Network") -> bool:
        """True when the experiment is complete (checked every cycle)."""

    def max_cycles_hint(self) -> int:
        """A generous upper bound on run length, for runaway protection."""
        return 10_000_000

    def time_marks(self, network: "Network") -> Tuple[int, ...]:
        """Cycles at which :meth:`finished` may change value *by time
        alone* (no component activity, no calendar event).

        The active-set kernel fast-forwards across idle gaps and only
        re-evaluates the finish predicate at cycles where something is
        due.  A workload whose predicate compares ``sim.now`` against a
        threshold (e.g. "stop generating after the measurement window")
        must declare those thresholds here so
        :func:`repro.network.simulation.run_workload` can register them
        as time marks (:meth:`repro.sim.kernel.Simulator.mark_time`) and
        the fast-forward never jumps past a decision point.  Purely
        delivery-driven predicates need no marks.
        """
        return ()


class OpenLoopWorkload(Workload):
    """Open-loop Poisson generation, the same on every host.

    Each host posts with exponentially distributed gaps for
    ``warmup_cycles + measure_cycles``; statistics sample only messages
    created in the measurement window; the run then drains.  A subclass
    says how often (:meth:`_mean_gap`) and what (:meth:`_post`), and
    names the RNG stream all of its draws come from.
    """

    #: name of the kernel RNG stream behind every gap and every post
    rng_stream: str
    #: what the default :meth:`_mean_gap` reads
    load: float
    payload_flits: int
    #: ``max_cycles_hint`` allows the generation window this many times
    #: over, plus the slack, for the drain
    DRAIN_FACTOR = 20
    DRAIN_SLACK = 500_000

    def __init__(self, warmup_cycles: int, measure_cycles: int) -> None:
        if warmup_cycles < 0 or measure_cycles < 1:
            raise ValueError("invalid warmup/measure window")
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self._stop_generation = warmup_cycles + measure_cycles

    def _mean_gap(self, network: "Network") -> float:
        """Mean cycles between two posts of one host: unless overridden,
        the gap at which unicast messages of ``self.payload_flits``
        offer ``self.load`` of a host's injection bandwidth."""
        size = network.unicast_header_flits() + self.payload_flits
        return mean_gap_for_load(self.load, size)

    @abstractmethod
    def _post(self, network: "Network", host: int, rng: Random) -> None:
        """One arrival at ``host``: draw what to send from ``rng`` and
        post it."""

    def start(self, network: "Network") -> None:
        arrivals = PoissonArrivals(self._mean_gap(network))
        network.collector.set_sample_window(
            self.warmup_cycles, self._stop_generation
        )
        rng = network.sim.rng.stream(self.rng_stream)
        for host in range(network.num_hosts):
            self._schedule_next(network, host, arrivals, rng)

    def _schedule_next(self, network, host, arrivals, rng) -> None:
        when = network.sim.now + arrivals.next_gap(rng)
        if when >= self._stop_generation:
            return

        def fire() -> None:
            self._post(network, host, rng)
            self._schedule_next(network, host, arrivals, rng)

        network.sim.schedule_at(when, fire)

    def finished(self, network: "Network") -> bool:
        return (
            network.sim.now >= self._stop_generation
            and network.collector.outstanding_messages == 0
        )

    def max_cycles_hint(self) -> int:
        return self._stop_generation * self.DRAIN_FACTOR + self.DRAIN_SLACK

    def time_marks(self, network: "Network") -> Tuple[int, ...]:
        # finished() flips on sim.now reaching the generation stop
        return (self._stop_generation,)


def uniform_other_host(rng: Random, num_hosts: int, host: int) -> int:
    """A uniformly random host other than ``host`` (one draw)."""
    destination = rng.randrange(num_hosts - 1)
    if destination >= host:
        destination += 1
    return destination
