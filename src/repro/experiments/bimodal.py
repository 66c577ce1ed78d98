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

from typing import Dict, Optional, Sequence

from repro.experiments.common import (
    QUICK,
    Experiment,
    ExperimentResult,
    Scale,
    Scheme,
    base_config,
    mean,
    summary_spec,
)
from repro.experiments.parallel import ExecutionPlan, Key
from repro.metrics.report import Table
from repro.traffic.bimodal import BimodalTraffic

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5)


def plan_bimodal(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    loads: Sequence[float] = DEFAULT_LOADS,
    multicast_fraction: float = 1.0 / 16.0,
    degree: int = 8,
    payload_flits: int = 32,
    schemes: Optional[Sequence[Scheme]] = None,
) -> ExecutionPlan:
    """Declare E4's (load x scheme x seed) grid of independent runs."""
    schemes = (
        list(schemes) if schemes is not None else [Scheme.CB_HW, Scheme.SW]
    )
    seeds = scale.seeds()
    specs = []
    for load in loads:
        for scheme in schemes:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (load, scheme.value, seed),
                        scheme.apply(base_config(num_hosts, seed=seed)),
                        scale,
                        BimodalTraffic,
                        load=load,
                        multicast_fraction=multicast_fraction,
                        degree=degree,
                        payload_flits=payload_flits,
                        scheme=scheme.multicast_scheme,
                        warmup_cycles=scale.warmup_cycles,
                        measure_cycles=scale.measure_cycles,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        loads=tuple(loads),
        multicast_fraction=multicast_fraction,
        degree=degree,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("e4", specs, meta)


def reduce_bimodal(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into E4's table, in declared grid order."""
    meta = plan.meta
    schemes = meta["schemes"]
    columns = ["load"]
    for scheme in schemes:
        columns.append(f"uni@{scheme.value}")
        columns.append(f"mc@{scheme.value}")
    table = Table(
        f"E4: bimodal traffic (N={meta['num_hosts']}, "
        f"f={meta['multicast_fraction']:.3f}, d={meta['degree']}) "
        "— unicast and multicast latency [cycles]",
        columns,
    )
    result = ExperimentResult("e4_bimodal", table)
    for load in meta["loads"]:
        cells = [load]
        for scheme in schemes:
            unicast, ops = [], []
            for seed in meta["seeds"]:
                summary = results[(load, scheme.value, seed)]
                if summary.unicast_latency.count:
                    unicast.append(summary.unicast_latency.mean)
                if summary.op_last_latency.count:
                    ops.append(summary.op_last_latency.mean)
            uni_latency = mean(unicast)
            op_latency = mean(ops)
            cells.extend([uni_latency, op_latency])
            result.rows.append(
                {
                    "load": load,
                    "scheme": scheme.value,
                    "unicast_latency": uni_latency,
                    "op_latency": op_latency,
                }
            )
        table.add_row(*cells)
    return result


#: E4; rows carry unicast and op latency per (load, scheme)
run_bimodal = Experiment(
    "e4", plan_bimodal, reduce_bimodal,
    chart=("load", "unicast_latency", "scheme"),
)
