"""E6: pure-unicast comparison of the two buffer organisations.

Uniform random unicast traffic at a swept offered load.  This validates
the premise the paper inherits from refs [36, 37]: a dynamically shared
central buffer outperforms statically partitioned input buffers for
ordinary traffic too (input buffers suffer head-of-line blocking), which
is why enhancing the central-buffer switch — the more complex design —
is worth the trouble.
"""

from __future__ import annotations

from repro.experiments.common import (
    Scheme,
    base_config,
    mean,
    summary_spec,
    sweep,
    unicast_latency,
)
from repro.flits.packet import TrafficClass
from repro.traffic.unicast import UniformRandomUnicast

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def _spec(p, key, load, scheme, seed):
    return summary_spec(
        key,
        scheme.apply(base_config(p.num_hosts, seed=seed)),
        p.scale,
        UniformRandomUnicast,
        load=load,
        payload_flits=p.payload_flits,
        warmup_cycles=p.scale.warmup_cycles,
        measure_cycles=p.scale.measure_cycles,
    )


def _throughput(p, runs):
    """Seed mean of the accepted unicast throughput over the window."""
    return mean(
        [
            run.throughput(TrafficClass.UNICAST, p.scale.measure_cycles)
            for run in runs
        ]
    )


#: E6; rows carry latency and throughput per (load, architecture)
run_unicast_baseline = sweep(
    "e6",
    "e6_unicast_baseline",
    defaults=dict(
        num_hosts=64,
        loads=DEFAULT_LOADS,
        payload_flits=32,
        schemes=(Scheme.CB_HW, Scheme.IB_HW),
    ),
    axes=lambda p: [("load", p.loads), ("scheme", p.schemes)],
    spec=_spec,
    measures={"latency": unicast_latency, "throughput": _throughput},
    title=lambda p: (
        f"E6: uniform unicast (N={p.num_hosts}, "
        f"{p.payload_flits}-flit payload)"
        " — latency [cycles] and accepted throughput [flits/cycle/host]"
    ),
    columns=lambda p: ["load"] + [
        f"{kind}@{s.value}" for s in p.schemes for kind in ("lat", "thr")
    ],
    chart=("load", "latency", "scheme"),
)
