"""Post-run network probe: central-buffer occupancy per BMIN level.

The switches already keep continuous, time-weighted occupancy accounts
(the central-buffer pool), so the probe aggregates after a run rather
than sampling during it.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.switches.central_buffer import CentralBufferSwitch
from repro.topology.bmin import BidirectionalMin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.builder import Network


def central_buffer_occupancy_by_level(
    network: "Network",
) -> Dict[int, float]:
    """Mean central-buffer occupancy per BMIN level (chunks).

    Requires a BMIN topology; the leaf level is 0.
    """
    bmin = network.topology_object
    if not isinstance(bmin, BidirectionalMin):
        raise TypeError("per-level occupancy needs a BMIN topology")
    now = network.sim.now
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for switch_id, switch in enumerate(network.switches):
        if not isinstance(switch, CentralBufferSwitch):
            raise TypeError("per-level occupancy needs central-buffer switches")
        level = bmin.switch_level(switch_id)
        # the run stopped before the ticks of cycle `now`: the pool as of
        # the end of the cycle before, whatever was committed past it
        pool = switch.pool.at(now - 1)
        sums[level] = sums.get(level, 0.0) + pool.occupancy.average(now)
        counts[level] = counts.get(level, 0) + 1
    return {level: sums[level] / counts[level] for level in sorted(sums)}

