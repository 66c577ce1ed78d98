"""repro: multidestination worms in switch-based parallel systems.

A flit-level simulator and analysis library reproducing Stunkel, Sivaram
and Panda, *Implementing Multidestination Worms in Switch-Based Parallel
Systems: Architectural Alternatives and their Impact* (ISCA 1997).

Quickstart
----------
>>> from repro import (
...     SimulationConfig, SwitchArchitecture, MulticastScheme,
...     MultipleMulticastBurst, run_simulation,
... )
>>> cfg = SimulationConfig(num_hosts=16)
>>> workload = MultipleMulticastBurst(
...     num_multicasts=2, degree=4, payload_flits=32,
...     scheme=MulticastScheme.HARDWARE,
... )
>>> result = run_simulation(cfg, workload)
>>> result.op_last_latency.count
2

A campaign of many runs calls ``result.network.close()`` once it has
read what it needs from each: the result stays readable, the network
refuses to run again, and dropping it frees every object by reference
count instead of leaving them to the cyclic collector.

>>> result.network.close()
>>> result.op_last_latency.count
2
"""

from repro._version import __version__
from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.flits.destset import DestinationSet
from repro.flits.encoding import BitStringEncoding, MultiportEncoding
from repro.flits.packet import Message, Packet, TrafficClass
from repro.network.builder import Network, build_network
from repro.network.config import EncodingKind, SimulationConfig, TopologyKind
from repro.network.simulation import (
    SimulationResult,
    run_simulation,
    run_workload,
)
from repro.routing.base import MulticastRoutingMode, UpPortPolicy
from repro.traffic.base import Workload
from repro.traffic.bimodal import BimodalTraffic
from repro.traffic.multicast import (
    MultipleMulticastBurst,
    RandomMulticastStream,
    SingleMulticast,
)
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.unicast import PermutationTraffic, UniformRandomUnicast

__all__ = [
    "BimodalTraffic",
    "BitStringEncoding",
    "DestinationSet",
    "EncodingKind",
    "HotspotTraffic",
    "Message",
    "MulticastRoutingMode",
    "MulticastScheme",
    "MultipleMulticastBurst",
    "MultiportEncoding",
    "Network",
    "Packet",
    "PermutationTraffic",
    "RandomMulticastStream",
    "SimulationConfig",
    "SimulationResult",
    "SingleMulticast",
    "SwitchArchitecture",
    "TopologyKind",
    "TrafficClass",
    "UniformRandomUnicast",
    "UpPortPolicy",
    "Workload",
    "__version__",
    "build_network",
    "run_simulation",
    "run_workload",
]
