"""E4: bimodal traffic — how a multicast scheme hurts background unicast.

Hosts generate a Poisson stream in which 1/16 of messages are multicasts
of degree 8 and the rest are unicasts, at a swept offered load.  We
report the mean latency of the *background unicast* traffic and of the
multicast operations under hardware (CB) and software multicast.

The paper's key finding: the software scheme injects ~d unicasts with
fresh start-ups per operation, so at equal nominal load it both saturates
the network earlier (background unicast latency blows up) and delivers
far worse multicast latency — hardware multicast is gentler on everyone
else's traffic.
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
from repro.traffic.bimodal import BimodalTraffic

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5)


def _spec(p, key, load, scheme, seed):
    return summary_spec(
        key,
        scheme.apply(base_config(p.num_hosts, seed=seed)),
        p.scale,
        BimodalTraffic,
        load=load,
        multicast_fraction=p.multicast_fraction,
        degree=p.degree,
        payload_flits=p.payload_flits,
        scheme=scheme.multicast_scheme,
        warmup_cycles=p.scale.warmup_cycles,
        measure_cycles=p.scale.measure_cycles,
    )


def _op_latency(p, runs):
    """Seed mean of the operation latency, over the seeds whose
    measurement window completed a multicast."""
    return mean(
        [
            run.op_last_latency.mean
            for run in runs
            if run.op_last_latency.count
        ]
    )


#: E4; rows carry unicast and op latency per (load, scheme)
run_bimodal = sweep(
    "e4",
    "e4_bimodal",
    defaults=dict(
        num_hosts=64,
        loads=DEFAULT_LOADS,
        multicast_fraction=1.0 / 16.0,
        degree=8,
        payload_flits=32,
        schemes=(Scheme.CB_HW, Scheme.SW),
    ),
    axes=lambda p: [("load", p.loads), ("scheme", p.schemes)],
    spec=_spec,
    measures={"unicast_latency": unicast_latency, "op_latency": _op_latency},
    title=lambda p: (
        f"E4: bimodal traffic (N={p.num_hosts}, "
        f"f={p.multicast_fraction:.3f}, d={p.degree}) "
        "— unicast and multicast latency [cycles]"
    ),
    columns=lambda p: ["load"] + [
        f"{kind}@{s.value}" for s in p.schemes for kind in ("uni", "mc")
    ],
    chart=("load", "unicast_latency", "scheme"),
)
