"""X4: scheme generality across topology families.

The paper argues its designs apply to "all categories of switch-based
parallel systems" — bidirectional MINs (evaluated), unidirectional MINs,
and irregular networks of workstations — while restricting its own
performance study to BMINs.  This experiment runs the E2-style degree
sweep on all three families and reports the HW/SW latency ratio, showing
the multidestination advantage is a property of the mechanism, not of
the fat-tree.
"""

from __future__ import annotations

from typing import Dict, Sequence

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
from repro.network.config import TopologyKind
from repro.traffic.multicast import SingleMulticast


def _config_for(topology: TopologyKind, num_hosts: int, seed: int):
    config = base_config(num_hosts, seed=seed, topology=topology)
    if topology is TopologyKind.IRREGULAR:
        config = config.derived(
            irregular_switches=max(4, num_hosts // 2),
            irregular_extra_links=3,
        )
    return config


def plan_cross_topology(
    scale: Scale = QUICK,
    num_hosts: int = 16,
    degrees: Sequence[int] = (4, 8, 12),
) -> ExecutionPlan:
    """Declare X4's (degree x topology x scheme x seed) grid."""
    topologies = list(TopologyKind)
    schemes = [Scheme.CB_HW, Scheme.SW]
    seeds = scale.seeds()
    usable = tuple(degree for degree in degrees if degree < num_hosts)
    specs = []
    for degree in usable:
        for topology in topologies:
            for scheme in schemes:
                for seed in seeds:
                    specs.append(
                        summary_spec(
                            (degree, topology.value, scheme.value, seed),
                            scheme.apply(
                                _config_for(topology, num_hosts, seed)
                            ),
                            scale,
                            SingleMulticast,
                            source=seed % num_hosts,
                            degree=degree,
                            payload_flits=32,
                            scheme=scheme.multicast_scheme,
                        )
                    )
    meta = dict(
        num_hosts=num_hosts,
        degrees=usable,
        topologies=topologies,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("x4", specs, meta)


def reduce_cross_topology(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into X4's table, in declared grid order."""
    meta = plan.meta
    topologies = meta["topologies"]
    columns = ["degree"]
    for topology in topologies:
        columns.append(f"hw@{topology.value}")
        columns.append(f"sw@{topology.value}")
    table = Table(
        f"X4: multicast latency across topology families "
        f"(N={meta['num_hosts']}) [cycles]",
        columns,
    )
    result = ExperimentResult("x4_cross_topology", table)
    for degree in meta["degrees"]:
        cells = [degree]
        for topology in topologies:
            for scheme in meta["schemes"]:
                latency = mean(
                    [
                        results[
                            (degree, topology.value, scheme.value, seed)
                        ].op_last_latency.mean
                        for seed in meta["seeds"]
                    ]
                )
                cells.append(latency)
                result.rows.append(
                    {
                        "degree": degree,
                        "topology": topology.value,
                        "scheme": scheme.value,
                        "latency": latency,
                    }
                )
        table.add_row(*cells)
    return result


#: X4: HW vs SW multicast latency on BMIN, UMIN and irregular
run_cross_topology = Experiment(
    "x4", plan_cross_topology, reduce_cross_topology,
)
