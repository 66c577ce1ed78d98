"""Saturation-throughput measurement.

The classic summary number for an interconnect: the offered load beyond
which the network is effectively saturated.  Two criteria are combined,
as in the literature:

* **throughput** — the accepted rate falls clearly below the offered
  rate (or the run cannot drain within a generous budget);
* **latency knee** — mean latency exceeds a multiple (default 4x) of the
  low-load reference latency.  A full-bisection fat tree under uniform
  traffic can carry nearly 100% offered load, so the knee criterion is
  what distinguishes the organisations in practice.

:func:`find_saturation_load` bisects on offered load using short
open-loop runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.flits.packet import TrafficClass
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation
from repro.traffic.unicast import UniformRandomUnicast


@dataclass(frozen=True)
class SaturationProbe:
    """One load point of a saturation search."""

    load: float
    accepted: float
    offered: float
    completed: bool
    latency: float

    @property
    def throughput_saturated(self) -> bool:
        """True when the network failed to carry the offered load.

        A run that cannot drain within its generous budget is saturated;
        otherwise the accepted rate must reach 85% of the offered rate
        (the slack absorbs Poisson sampling noise in short windows).
        """
        if not self.completed:
            return True
        return self.accepted < 0.85 * self.offered

    def saturated(
        self,
        reference_latency: Optional[float] = None,
        latency_factor: float = 4.0,
    ) -> bool:
        """Combined criterion; pass a low-load ``reference_latency`` to
        enable the latency-knee test."""
        if self.throughput_saturated:
            return True
        if reference_latency is not None and reference_latency > 0:
            return self.latency > latency_factor * reference_latency
        return False


def probe_load(
    config: SimulationConfig,
    load: float,
    payload_flits: int = 32,
    warmup_cycles: int = 500,
    measure_cycles: int = 3_000,
) -> SaturationProbe:
    """Measure accepted vs. offered throughput and latency at one load."""
    workload = UniformRandomUnicast(
        load=load,
        payload_flits=payload_flits,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
    )
    budget = (warmup_cycles + measure_cycles) * 4
    result = run_simulation(config, workload, max_cycles=budget)
    accepted = result.throughput(TrafficClass.UNICAST, measure_cycles)
    header = 1  # unicast control flit
    offered = load * payload_flits / (payload_flits + header)
    latency = (
        result.unicast_latency.mean if result.unicast_latency.count else 0.0
    )
    result.network.close()
    return SaturationProbe(
        load=load,
        accepted=accepted,
        offered=offered,
        completed=result.completed,
        latency=latency,
    )


def find_saturation_load(
    config: SimulationConfig,
    payload_flits: int = 32,
    low: float = 0.05,
    high: float = 1.0,
    tolerance: float = 0.05,
    latency_factor: float = 4.0,
    warmup_cycles: int = 500,
    measure_cycles: int = 3_000,
) -> Tuple[float, List[SaturationProbe]]:
    """Bisect for the saturation load; returns (estimate, probes).

    The probe at ``low`` establishes the latency reference for the knee
    criterion.  The estimate is the midpoint of the final bracket; if
    even ``high`` is unsaturated it is ``high``, and if even ``low``
    saturates (by throughput) it is ``low``.
    """
    if not 0 < low < high <= 1.0:
        raise ValueError("need 0 < low < high <= 1.0")
    probes: List[SaturationProbe] = []

    def measure(load: float) -> SaturationProbe:
        probe = probe_load(
            config, load, payload_flits, warmup_cycles, measure_cycles
        )
        probes.append(probe)
        return probe

    reference = measure(low)
    if reference.throughput_saturated:
        return low, probes
    reference_latency = reference.latency

    def saturated(probe: SaturationProbe) -> bool:
        return probe.saturated(reference_latency, latency_factor)

    if not saturated(measure(high)):
        return high, probes
    good, bad = low, high
    while bad - good > tolerance:
        mid = (good + bad) / 2
        if saturated(measure(mid)):
            bad = mid
        else:
            good = mid
    return (good + bad) / 2, probes
