"""E6: pure-unicast comparison of the two buffer organisations.

Uniform random unicast traffic at a swept offered load.  This validates
the premise the paper inherits from refs [36, 37]: a dynamically shared
central buffer outperforms statically partitioned input buffers for
ordinary traffic too (input buffers suffer head-of-line blocking), which
is why enhancing the central-buffer switch — the more complex design —
is worth the trouble.
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
from repro.flits.packet import TrafficClass
from repro.metrics.report import Table
from repro.traffic.unicast import UniformRandomUnicast

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def plan_unicast_baseline(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    loads: Sequence[float] = DEFAULT_LOADS,
    payload_flits: int = 32,
    schemes: Optional[Sequence[Scheme]] = None,
) -> ExecutionPlan:
    """Declare E6's (load x scheme x seed) grid of independent runs."""
    schemes = (
        list(schemes)
        if schemes is not None
        else [Scheme.CB_HW, Scheme.IB_HW]
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
                        UniformRandomUnicast,
                        load=load,
                        payload_flits=payload_flits,
                        warmup_cycles=scale.warmup_cycles,
                        measure_cycles=scale.measure_cycles,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        loads=tuple(loads),
        payload_flits=payload_flits,
        schemes=schemes,
        seeds=seeds,
        measure_cycles=scale.measure_cycles,
    )
    return ExecutionPlan("e6", specs, meta)


def reduce_unicast_baseline(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into E6's table, in declared grid order."""
    meta = plan.meta
    schemes = meta["schemes"]
    columns = ["load"]
    for scheme in schemes:
        columns.append(f"lat@{scheme.value}")
        columns.append(f"thr@{scheme.value}")
    table = Table(
        f"E6: uniform unicast (N={meta['num_hosts']}, "
        f"{meta['payload_flits']}-flit payload)"
        " — latency [cycles] and accepted throughput [flits/cycle/host]",
        columns,
    )
    result = ExperimentResult("e6_unicast_baseline", table)
    for load in meta["loads"]:
        cells = [load]
        for scheme in schemes:
            latencies, throughputs = [], []
            for seed in meta["seeds"]:
                summary = results[(load, scheme.value, seed)]
                if summary.unicast_latency.count:
                    latencies.append(summary.unicast_latency.mean)
                throughputs.append(
                    summary.throughput(
                        TrafficClass.UNICAST, meta["measure_cycles"]
                    )
                )
            latency = mean(latencies)
            throughput = mean(throughputs)
            cells.extend([latency, throughput])
            result.rows.append(
                {
                    "load": load,
                    "scheme": scheme.value,
                    "latency": latency,
                    "throughput": throughput,
                }
            )
        table.add_row(*cells)
    return result


#: E6; rows carry latency and throughput per (load, architecture)
run_unicast_baseline = Experiment(
    "e6", plan_unicast_baseline, reduce_unicast_baseline,
    chart=("load", "latency", "scheme"),
)
