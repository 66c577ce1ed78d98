"""Workload generators for the paper's evaluation axes."""

from repro.traffic.base import Workload
from repro.traffic.schedules import PoissonArrivals
from repro.traffic.unicast import PermutationTraffic, UniformRandomUnicast
from repro.traffic.multicast import (
    MultipleMulticastBurst,
    RandomMulticastStream,
    SingleMulticast,
)
from repro.traffic.bimodal import BimodalTraffic
from repro.traffic.hotspot import HotspotTraffic

__all__ = [
    "BimodalTraffic",
    "HotspotTraffic",
    "MultipleMulticastBurst",
    "PermutationTraffic",
    "PoissonArrivals",
    "RandomMulticastStream",
    "SingleMulticast",
    "UniformRandomUnicast",
    "Workload",
]
