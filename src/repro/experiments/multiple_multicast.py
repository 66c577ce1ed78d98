"""E1: multiple simultaneous multicasts (the paper's headline workload).

*m* hosts multicast at once to *d* random destinations each; we report
the mean last-arrival latency per operation for the three schemes as *m*
grows.  The paper's result: CB-HW stays lowest, IB-HW degrades faster as
concurrent worms contend for statically partitioned buffers, and SW is
several times slower throughout because each operation is log2(d+1)
serialized unicast phases with software start-ups.
"""

from __future__ import annotations

from repro.experiments.common import (
    Scheme,
    base_config,
    op_latency,
    summary_spec,
    sweep,
)
from repro.traffic.multicast import MultipleMulticastBurst

DEFAULT_CONCURRENCY = (1, 2, 4, 8, 16)


def _spec(p, key, m, scheme, seed):
    return summary_spec(
        key,
        scheme.apply(base_config(p.num_hosts, seed=seed)),
        p.scale,
        MultipleMulticastBurst,
        num_multicasts=m,
        degree=p.degree,
        payload_flits=p.payload_flits,
        scheme=scheme.multicast_scheme,
    )


#: E1: per-(m, scheme) mean last-arrival latencies
run_multiple_multicast = sweep(
    "e1",
    "e1_multiple_multicast",
    defaults=dict(
        num_hosts=64,
        concurrency=DEFAULT_CONCURRENCY,
        degree=8,
        payload_flits=64,
        schemes=tuple(Scheme),
    ),
    axes=lambda p: [("m", p.concurrency), ("scheme", p.schemes)],
    spec=_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"E1: multiple multicast (N={p.num_hosts}, "
        f"d={p.degree}, {p.payload_flits}-flit payload) "
        "— mean last-arrival latency [cycles]"
    ),
    columns=lambda p: ["m"] + [s.value for s in p.schemes],
    chart=("m", "latency", "scheme"),
)
