"""Top-level run loop and result bundle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.errors import CycleBudgetExhausted
from repro.flits.packet import TrafficClass
from repro.metrics.collectors import MetricsCollector
from repro.network.builder import Network, build_network
from repro.network.config import SimulationConfig
from repro.obs import runtime as obs_runtime
from repro.sim.stats import RunningStats
from repro.traffic.base import Workload

#: a network with zero progress for this many cycles (and no pending
#: calendar events) is declared wedged
STALL_LIMIT = 50_000


@dataclass
class SimulationResult:
    """Everything an experiment needs from one finished run."""

    #: the cycle the run stopped at — stored, so a network that runs
    #: again after the result was taken does not move it
    cycles: int
    completed: bool
    #: the network the run executed on, for probes that read component
    #: state after the fact (buffer occupancy, topology distances)
    network: Network = field(repr=False)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        """The configuration the network was built from."""
        return self.network.config

    @property
    def collector(self) -> MetricsCollector:
        """The network's live metrics collector."""
        return self.network.collector

    @property
    def unicast_latency(self) -> RunningStats:
        """Per-delivery latency of background unicast messages."""
        return self.collector.classes[TrafficClass.UNICAST].latency

    @property
    def op_last_latency(self) -> RunningStats:
        """Last-arrival latency over completed multicast operations."""
        return self.collector.op_last_latency

    @property
    def op_average_latency(self) -> RunningStats:
        """Mean per-destination latency over completed operations."""
        return self.collector.op_average_latency

    def delivered_flits(self, traffic_class: TrafficClass) -> int:
        """In-window delivered payload flits for one class."""
        return self.collector.classes[traffic_class].payload_flits

    def throughput(
        self, traffic_class: TrafficClass, window_cycles: int
    ) -> float:
        """Delivered payload flits per cycle per host over a window."""
        if window_cycles <= 0:
            return 0.0
        return (
            self.delivered_flits(traffic_class)
            / window_cycles
            / self.config.num_hosts
        )

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers, for reports and tests."""
        out: Dict[str, float] = {
            "cycles": self.cycles,
            "completed": float(self.completed),
            "operations": float(self.collector.operations_created),
        }
        for traffic_class, stats in self.collector.classes.items():
            prefix = traffic_class.value
            out[f"{prefix}_deliveries"] = float(stats.deliveries)
            out[f"{prefix}_latency_mean"] = (
                stats.latency.mean if stats.latency.count else 0.0
            )
        if self.op_last_latency.count:
            out["op_last_latency_mean"] = self.op_last_latency.mean
            out["op_avg_latency_mean"] = self.op_average_latency.mean
        return out

    def to_summary(self, **extras: object) -> "RunSummary":
        """A picklable :class:`RunSummary` for cross-process transport."""
        class_latency: Dict[str, StatsSummary] = {}
        class_deliveries: Dict[str, int] = {}
        class_payload_flits: Dict[str, int] = {}
        for traffic_class, stats in self.collector.classes.items():
            name = traffic_class.value
            class_latency[name] = StatsSummary.from_stats(stats.latency)
            class_deliveries[name] = stats.deliveries
            class_payload_flits[name] = stats.payload_flits
        return RunSummary(
            num_hosts=self.config.num_hosts,
            cycles=self.cycles,
            completed=self.completed,
            operations=self.collector.operations_created,
            op_last_latency=StatsSummary.from_stats(self.op_last_latency),
            op_average_latency=StatsSummary.from_stats(
                self.op_average_latency
            ),
            class_latency=class_latency,
            class_deliveries=class_deliveries,
            class_payload_flits=class_payload_flits,
            extras=dict(extras),
        )


@dataclass(frozen=True)
class StatsSummary:
    """Picklable snapshot of a :class:`RunningStats` accumulator."""

    count: int = 0
    mean: float = 0.0
    min: float = 0.0
    max: float = 0.0

    @classmethod
    def from_stats(cls, stats: RunningStats) -> "StatsSummary":
        """Freeze the headline numbers of one accumulator."""
        if not stats.count:
            return cls()
        return cls(
            count=stats.count, mean=stats.mean, min=stats.min, max=stats.max
        )


@dataclass(frozen=True)
class RunSummary:
    """Everything the experiment reduce steps need from one run.

    :class:`SimulationResult` holds the live metrics collector — cheap to
    inspect in-process but needlessly heavy to ship between worker
    processes.  This summary is a small frozen dataclass of plain floats
    and dicts, safe to pickle across a ``multiprocessing`` pool, with the
    same accessors the experiments already use (``unicast_latency``,
    ``op_last_latency``, ``throughput``).  ``extras`` carries any
    experiment-specific probe values (e.g. buffer occupancy by level).
    """

    num_hosts: int
    cycles: int
    completed: bool
    operations: int
    op_last_latency: StatsSummary
    op_average_latency: StatsSummary
    class_latency: Dict[str, StatsSummary]
    class_deliveries: Dict[str, int]
    class_payload_flits: Dict[str, int]
    extras: Dict[str, object] = field(default_factory=dict)

    def latency(self, traffic_class: Union[TrafficClass, str]) -> StatsSummary:
        """Per-delivery latency summary for one traffic class."""
        name = getattr(traffic_class, "value", traffic_class)
        return self.class_latency.get(name, StatsSummary())

    @property
    def unicast_latency(self) -> StatsSummary:
        """Per-delivery latency of background unicast messages."""
        return self.latency(TrafficClass.UNICAST)

    def delivered_flits(
        self, traffic_class: Union[TrafficClass, str]
    ) -> int:
        """In-window delivered payload flits for one class."""
        name = getattr(traffic_class, "value", traffic_class)
        return self.class_payload_flits.get(name, 0)

    def throughput(
        self,
        traffic_class: Union[TrafficClass, str],
        window_cycles: int,
    ) -> float:
        """Delivered payload flits per cycle per host over a window."""
        if window_cycles <= 0:
            return 0.0
        return (
            self.delivered_flits(traffic_class)
            / window_cycles
            / self.num_hosts
        )


def run_workload(
    network: Network,
    workload: Workload,
    max_cycles: Optional[int] = None,
    stall_limit: int = STALL_LIMIT,
) -> SimulationResult:
    """Run ``workload`` on an already-built network to completion.

    Returns a result with ``completed=False`` (rather than raising) when
    the cycle budget runs out — a saturated open-loop run is data, not an
    error.  Every other :class:`~repro.errors.SimulationError` — a
    genuine stall (:class:`~repro.errors.DeadlockSuspected`: no progress
    and nothing scheduled), a probe that fails to advance — still raises.
    """
    budget = max_cycles if max_cycles is not None else workload.max_cycles_hint()
    workload.start(network)
    for mark in workload.time_marks(network):
        network.sim.mark_time(mark)
    completed = True
    try:
        network.sim.run_until(
            lambda: workload.finished(network),
            max_cycles=budget,
            stall_limit=stall_limit,
        )
    except CycleBudgetExhausted:
        completed = False
    finally:
        # the one place counters are brought up to date for reading: a
        # component asleep while blocked counts those cycles when it
        # next ticks, and a run may stop — or stall — first
        now = network.sim.now
        if network.metrics is not None:
            for component in (*network.switches, *network.interfaces):
                component.settle_blocked(now)
        # and what a switch's next tick would settle first: the worms
        # whose tails left in a run before the stop go now, not whenever
        # the network is closed or next runs, and so do the chunk takes
        # and releases dated before it
        for switch in network.switches:
            switch.settle(now)
    return SimulationResult(
        cycles=network.sim.now, completed=completed, network=network
    )


def run_simulation(
    config: SimulationConfig,
    workload: Workload,
    max_cycles: Optional[int] = None,
) -> SimulationResult:
    """Build the configured network and run one workload on it.

    When observability has been configured process-wide (see
    :mod:`repro.obs.runtime`), the run is routed through the
    instrumented harness instead; results are identical either way.
    """
    options = obs_runtime.configured()
    if options is not None:
        from repro.obs.harness import run_instrumented

        return run_instrumented(config, workload, max_cycles, options)
    network = build_network(config)
    return run_workload(network, workload, max_cycles=max_cycles)
