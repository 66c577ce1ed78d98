"""Cycle-driven gauge sampling: occupancy and utilisation over time.

The post-run probes in :mod:`repro.metrics.probe` answer "what was the
mean and peak?"; the :class:`CycleSampler` answers "when?".  Register it
with ``sim.add_component`` and every ``every`` cycles it evaluates the
selected gauges of a :class:`~repro.obs.registry.MetricsRegistry` into
an in-memory time series and (optionally) a streaming
:class:`~repro.obs.sinks.MetricsSink`.

The sampler rides the kernel's probe lane
(:meth:`~repro.sim.kernel.Simulator.add_probe`), not the wake calendar:
it never keeps the active-set kernel awake, so fast-forward jumps stay
uncapped, and sample points that land inside a skipped idle span are
*carried forward* — replayed by the kernel at the jump with ``now`` set
to each sample cycle, producing a time series bit-identical to the
dense kernel's (``tests/obs/test_sampler.py`` holds both properties).

Sampling is read-only — the sampler never touches RNG streams, never
notes progress and never schedules events, so attaching one cannot
change simulation behaviour (the zero-overhead regression test in
``tests/obs/test_zero_overhead.py`` enforces this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import MetricsSink
from repro.sim.component import Component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network
    from repro.sim.kernel import Simulator


class CycleSampler(Component):
    """Snapshots registry gauges every ``every`` cycles.

    Parameters
    ----------
    registry:
        The registry whose gauges are sampled.
    every:
        Sampling period in cycles (>= 1); cycle 0 is always sampled.
    sink:
        Optional streaming sink; each sample also becomes one
        ``repro.metrics/1`` JSONL line.
    gauges:
        Gauge names to sample; default is every registered gauge.
    run:
        Run tag stamped on streamed lines (see :mod:`repro.obs.sinks`).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        every: int,
        sink: Optional[MetricsSink] = None,
        gauges: Optional[Sequence[str]] = None,
        run: str = "",
        name: str = "obs.sampler",
    ) -> None:
        super().__init__(name)
        if every < 1:
            raise ValueError("sampling period must be >= 1 cycle")
        self.registry = registry
        self.every = every
        self.sink = sink
        self.gauge_names = list(gauges) if gauges is not None else None
        self.run = run
        #: the collected time series, oldest first
        self.series: List[Tuple[int, Dict[str, float]]] = []
        #: next sample cycle — the kernel probe contract; aligned to the
        #: sampling grid (multiples of ``every``) at attach time
        self.next_cycle = 0

    def attach(self, sim: "Simulator") -> None:
        super().attach(sim)
        now = sim.now
        remainder = now % self.every
        self.next_cycle = now if not remainder else now + self.every - remainder
        sim.add_probe(self)

    def sample(self, cycle: int) -> None:
        """Kernel probe callback: snapshot the gauges at ``cycle``."""
        self.next_cycle = cycle + self.every
        values = self.registry.sample_gauges(self.gauge_names)
        self.series.append((cycle, values))
        if self.sink is not None:
            self.sink.write_point(self.run, cycle, values)

    def tick(self, now: int) -> None:
        # sampling happens on the kernel's probe lane (see `attach`); the
        # component registration only exists so `sim.add_component` keeps
        # working as the attachment point — the initial wake is a no-op
        pass


def register_network_gauges(
    network: "Network", registry: MetricsRegistry
) -> None:
    """Register the standard time-series gauges over a built network.

    ``cb.occupancy_chunks``
        Chunks currently held across every central-buffer switch
        (instantaneous, unlike the time-weighted post-run probe).
    ``link.utilisation``
        Mean flits-per-link-cycle since the previous reading — a
        windowed rate whose window is the sampling period.
    ``ni.injection_backlog``
        Worms queued or mid-injection across every host interface.
    """
    pools = [
        switch.pool
        for switch in network.switches
        if switch.pool is not None
    ]
    sim = network.sim
    registry.gauge(
        "cb.occupancy_chunks",
        lambda: float(sum(pool.at(sim.now).used_chunks for pool in pools)),
    )

    links = network.links

    def sent_by(now: int) -> int:
        return sum(link.flits_sent_by(now) for link in links)

    last = {"cycle": sim.now, "flits": sent_by(sim.now)}

    def _link_utilisation() -> float:
        now = sim.now
        total = sent_by(now)
        elapsed = now - last["cycle"]
        delta = total - last["flits"]
        last["cycle"] = now
        last["flits"] = total
        if elapsed <= 0 or not links:
            return 0.0
        return delta / (elapsed * len(links))

    registry.gauge("link.utilisation", _link_utilisation)

    interfaces = network.interfaces
    registry.gauge(
        "ni.injection_backlog",
        lambda: float(sum(ni.injection_backlog for ni in interfaces)),
    )
