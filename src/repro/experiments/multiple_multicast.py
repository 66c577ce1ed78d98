"""E1: multiple simultaneous multicasts (the paper's headline workload).

*m* hosts multicast at once to *d* random destinations each; we report
the mean last-arrival latency per operation for the three schemes as *m*
grows.  The paper's result: CB-HW stays lowest, IB-HW degrades faster as
concurrent worms contend for statically partitioned buffers, and SW is
several times slower throughout because each operation is log2(d+1)
serialized unicast phases with software start-ups.
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
from repro.traffic.multicast import MultipleMulticastBurst

DEFAULT_CONCURRENCY = (1, 2, 4, 8, 16)


def plan_multiple_multicast(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    concurrency: Sequence[int] = DEFAULT_CONCURRENCY,
    degree: int = 8,
    payload_flits: int = 64,
    schemes: Optional[Sequence[Scheme]] = None,
) -> ExecutionPlan:
    """Declare E1's (m x scheme x seed) grid of independent runs."""
    schemes = list(schemes) if schemes is not None else list(Scheme)
    seeds = scale.seeds()
    specs = []
    for m in concurrency:
        for scheme in schemes:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (m, scheme.value, seed),
                        scheme.apply(base_config(num_hosts, seed=seed)),
                        scale,
                        MultipleMulticastBurst,
                        num_multicasts=m,
                        degree=degree,
                        payload_flits=payload_flits,
                        scheme=scheme.multicast_scheme,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        concurrency=tuple(concurrency),
        degree=degree,
        payload_flits=payload_flits,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("e1", specs, meta)


def reduce_multiple_multicast(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into E1's table, in declared grid order."""
    meta = plan.meta
    schemes = meta["schemes"]
    table = Table(
        f"E1: multiple multicast (N={meta['num_hosts']}, "
        f"d={meta['degree']}, {meta['payload_flits']}-flit payload) "
        "— mean last-arrival latency [cycles]",
        ["m"] + [scheme.value for scheme in schemes],
    )
    result = ExperimentResult("e1_multiple_multicast", table)
    for m in meta["concurrency"]:
        cells = [m]
        for scheme in schemes:
            latency = mean(
                [
                    results[(m, scheme.value, seed)].op_last_latency.mean
                    for seed in meta["seeds"]
                ]
            )
            cells.append(latency)
            result.rows.append(
                {"m": m, "scheme": scheme.value, "latency": latency}
            )
        table.add_row(*cells)
    return result


#: E1: per-(m, scheme) mean last-arrival latencies
run_multiple_multicast = Experiment(
    "e1", plan_multiple_multicast, reduce_multiple_multicast,
    chart=("m", "latency", "scheme"),
)
