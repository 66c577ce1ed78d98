"""E5: system-size scaling (16 / 64 / 256 hosts).

For each system size we run a broadcast and a quarter-system multicast.
Hardware multicast scales with the tree depth (log_a N extra switch
hops), while software multicast pays log2(d+1) phases — which grows with
the *destination count*, so the gap widens sharply with system size.
"""

from __future__ import annotations

from repro.experiments.common import (
    Scheme,
    base_config,
    op_latency,
    summary_spec,
    sweep,
)
from repro.traffic.multicast import SingleMulticast

DEFAULT_SIZES = (16, 64, 256)

#: (label, degree_fn) pairs defining the two workloads per system size
WORKLOADS = (
    ("broadcast", lambda n: n - 1),
    ("quarter", lambda n: max(2, n // 4)),
)


def _spec(p, key, num_hosts, workload, scheme, seed):
    _, degree_fn = workload
    return summary_spec(
        key,
        scheme.apply(base_config(num_hosts, seed=seed)),
        p.scale,
        SingleMulticast,
        source=seed % num_hosts,
        degree=degree_fn(num_hosts),
        payload_flits=p.payload_flits,
        scheme=scheme.multicast_scheme,
    )


#: E5: broadcast and N/4-degree multicast at each system size
run_system_size = sweep(
    "e5",
    "e5_system_size",
    defaults=dict(
        sizes=DEFAULT_SIZES,
        payload_flits=64,
        schemes=tuple(Scheme),
    ),
    axes=lambda p: [
        ("num_hosts", p.sizes),
        ("workload", WORKLOADS),
        ("scheme", p.schemes),
    ],
    spec=_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"E5: multicast latency vs. system size "
        f"({p.payload_flits}-flit payload) [cycles]"
    ),
    columns=lambda p: ["N", "workload"] + [s.value for s in p.schemes],
    lead=2,
)
