"""E2: multicast latency vs. number of destinations.

One multicast on an idle network, degree swept from 2 to N-1, averaged
over random destination sets.  Hardware multicast latency is nearly flat
in the degree (one worm, replicated in the switches), while the software
scheme grows with ceil(log2(d+1)) serialized phases — the paper's
up-to-4x gap.
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
from repro.traffic.multicast import SingleMulticast

DEFAULT_DEGREES = (2, 4, 8, 16, 32, 63)


def plan_degree_sweep(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    degrees: Sequence[int] = DEFAULT_DEGREES,
    payload_flits: int = 64,
    schemes: Optional[Sequence[Scheme]] = None,
) -> ExecutionPlan:
    """Declare E2's (degree x scheme x seed) grid of independent runs."""
    schemes = list(schemes) if schemes is not None else list(Scheme)
    seeds = scale.seeds()
    usable = tuple(degree for degree in degrees if degree < num_hosts)
    specs = []
    for degree in usable:
        for scheme in schemes:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (degree, scheme.value, seed),
                        scheme.apply(base_config(num_hosts, seed=seed)),
                        scale,
                        SingleMulticast,
                        source=seed % num_hosts,
                        degree=degree,
                        payload_flits=payload_flits,
                        scheme=scheme.multicast_scheme,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        degrees=usable,
        payload_flits=payload_flits,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("e2", specs, meta)


def reduce_degree_sweep(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into E2's table, in declared grid order."""
    meta = plan.meta
    schemes = meta["schemes"]
    table = Table(
        f"E2: single multicast latency vs. degree (N={meta['num_hosts']}, "
        f"{meta['payload_flits']}-flit payload) [cycles]",
        ["degree"] + [scheme.value for scheme in schemes],
    )
    result = ExperimentResult("e2_degree_sweep", table)
    for degree in meta["degrees"]:
        cells = [degree]
        for scheme in schemes:
            latency = mean(
                [
                    results[(degree, scheme.value, seed)].op_last_latency.mean
                    for seed in meta["seeds"]
                ]
            )
            cells.append(latency)
            result.rows.append(
                {"degree": degree, "scheme": scheme.value, "latency": latency}
            )
        table.add_row(*cells)
    return result


#: E2: per-(degree, scheme) last-arrival latencies
run_degree_sweep = Experiment(
    "e2", plan_degree_sweep, reduce_degree_sweep,
    chart=("degree", "latency", "scheme"),
)
