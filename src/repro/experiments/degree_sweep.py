"""E2: multicast latency vs. number of destinations.

One multicast on an idle network, degree swept from 2 to N-1, averaged
over random destination sets.  Hardware multicast latency is nearly flat
in the degree (one worm, replicated in the switches), while the software
scheme grows with ceil(log2(d+1)) serialized phases — the paper's
up-to-4x gap.
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

DEFAULT_DEGREES = (2, 4, 8, 16, 32, 63)


def _spec(p, key, degree, scheme, seed):
    return summary_spec(
        key,
        scheme.apply(base_config(p.num_hosts, seed=seed)),
        p.scale,
        SingleMulticast,
        source=seed % p.num_hosts,
        degree=degree,
        payload_flits=p.payload_flits,
        scheme=scheme.multicast_scheme,
    )


#: E2: per-(degree, scheme) last-arrival latencies
run_degree_sweep = sweep(
    "e2",
    "e2_degree_sweep",
    defaults=dict(
        num_hosts=64,
        degrees=DEFAULT_DEGREES,
        payload_flits=64,
        schemes=tuple(Scheme),
    ),
    axes=lambda p: [
        ("degree", [d for d in p.degrees if d < p.num_hosts]),
        ("scheme", p.schemes),
    ],
    spec=_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"E2: single multicast latency vs. degree (N={p.num_hosts}, "
        f"{p.payload_flits}-flit payload) [cycles]"
    ),
    columns=lambda p: ["degree"] + [s.value for s in p.schemes],
    chart=("degree", "latency", "scheme"),
)
