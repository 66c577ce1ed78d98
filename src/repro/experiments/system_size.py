"""E5: system-size scaling (16 / 64 / 256 hosts).

For each system size we run a broadcast and a quarter-system multicast.
Hardware multicast scales with the tree depth (log_a N extra switch
hops), while software multicast pays log2(d+1) phases — which grows with
the *destination count*, so the gap widens sharply with system size.
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

DEFAULT_SIZES = (16, 64, 256)

#: (label, degree_fn) pairs defining the two workloads per system size
WORKLOADS = (
    ("broadcast", lambda n: n - 1),
    ("quarter", lambda n: max(2, n // 4)),
)


def plan_system_size(
    scale: Scale = QUICK,
    sizes: Sequence[int] = DEFAULT_SIZES,
    payload_flits: int = 64,
    schemes: Optional[Sequence[Scheme]] = None,
) -> ExecutionPlan:
    """Declare E5's (size x workload x scheme x seed) grid."""
    schemes = list(schemes) if schemes is not None else list(Scheme)
    seeds = scale.seeds()
    specs = []
    for num_hosts in sizes:
        for label, degree_fn in WORKLOADS:
            degree = degree_fn(num_hosts)
            for scheme in schemes:
                for seed in seeds:
                    specs.append(
                        summary_spec(
                            (num_hosts, label, scheme.value, seed),
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
        sizes=tuple(sizes),
        payload_flits=payload_flits,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("e5", specs, meta)


def reduce_system_size(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into E5's table, in declared grid order."""
    meta = plan.meta
    schemes = meta["schemes"]
    columns = ["N", "workload"]
    columns.extend(scheme.value for scheme in schemes)
    table = Table(
        f"E5: multicast latency vs. system size "
        f"({meta['payload_flits']}-flit payload) [cycles]",
        columns,
    )
    result = ExperimentResult("e5_system_size", table)
    for num_hosts in meta["sizes"]:
        for label, _ in WORKLOADS:
            cells = [num_hosts, label]
            for scheme in schemes:
                latency = mean(
                    [
                        results[
                            (num_hosts, label, scheme.value, seed)
                        ].op_last_latency.mean
                        for seed in meta["seeds"]
                    ]
                )
                cells.append(latency)
                result.rows.append(
                    {
                        "num_hosts": num_hosts,
                        "workload": label,
                        "scheme": scheme.value,
                        "latency": latency,
                    }
                )
            table.add_row(*cells)
    return result


#: E5: broadcast and N/4-degree multicast at each system size
run_system_size = Experiment("e5", plan_system_size, reduce_system_size)
