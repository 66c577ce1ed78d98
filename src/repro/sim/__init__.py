"""Discrete-time simulation substrate.

The kernel is cycle driven: every registered :class:`~repro.sim.component.Component`
is ticked once per cycle, and an event calendar handles work scheduled for
future cycles (message injection times, software overheads, ...).  All
communication between components crosses pipelined links with a latency of
at least one cycle, which makes results independent of the per-cycle tick
order and therefore deterministic for a given seed.
"""

from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import RunningStats

__all__ = [
    "Component",
    "RngStreams",
    "RunningStats",
    "Simulator",
]
