"""X4: scheme generality across topology families.

The paper argues its designs apply to "all categories of switch-based
parallel systems" — bidirectional MINs (evaluated), unidirectional MINs,
and irregular networks of workstations — while restricting its own
performance study to BMINs.  This experiment runs the E2-style degree
sweep on all three families and reports the HW/SW latency ratio, showing
the multidestination advantage is a property of the mechanism, not of
the fat-tree.
"""

from __future__ import annotations

from repro.experiments.common import (
    Scheme,
    base_config,
    op_latency,
    summary_spec,
    sweep,
)
from repro.network.config import TopologyKind
from repro.traffic.multicast import SingleMulticast


def _config_for(topology: TopologyKind, num_hosts: int, seed: int):
    config = base_config(num_hosts, seed=seed, topology=topology)
    if topology is TopologyKind.IRREGULAR:
        config = config.derived(
            irregular_switches=max(4, num_hosts // 2),
            irregular_extra_links=3,
        )
    return config


def _spec(p, key, degree, topology, scheme, seed):
    return summary_spec(
        key,
        scheme.apply(_config_for(topology, p.num_hosts, seed)),
        p.scale,
        SingleMulticast,
        source=seed % p.num_hosts,
        degree=degree,
        payload_flits=32,
        scheme=scheme.multicast_scheme,
    )


#: X4: HW vs SW multicast latency on BMIN, UMIN and irregular
run_cross_topology = sweep(
    "x4",
    "x4_cross_topology",
    defaults=dict(num_hosts=16, degrees=(4, 8, 12)),
    axes=lambda p: [
        ("degree", [d for d in p.degrees if d < p.num_hosts]),
        ("topology", TopologyKind),
        ("scheme", (Scheme.CB_HW, Scheme.SW)),
    ],
    spec=_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"X4: multicast latency across topology families "
        f"(N={p.num_hosts}) [cycles]"
    ),
    columns=lambda p: ["degree"] + [
        f"{kind}@{t.value}" for t in TopologyKind for kind in ("hw", "sw")
    ],
)
#: the names the performance ledger and ``test_parallel.py`` import
plan_cross_topology = run_cross_topology.plan
reduce_cross_topology = run_cross_topology.reduce
