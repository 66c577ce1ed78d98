"""Extension experiments beyond the paper's evaluation section.

The paper's conclusion names barrier synchronization (their follow-up,
ref [34]) and hot-spot traffic as the work in progress; these
experiments carry the reproduction into that territory with the
machinery already built:

X1 — barrier latency and release skew vs. system size, comparing a
     multidestination-worm release against a software broadcast release;
X2 — hot-spot unicast traffic, central vs. input buffer organisation;
X3 — central-buffer occupancy by switch level under bimodal traffic,
     hardware vs. software multicast (how much buffering each scheme
     actually consumes).
"""

from __future__ import annotations

from typing import Dict

from repro.collectives.barrier import (
    ReleaseScheme,
    TreeCollective,
    TreeCollectiveEngine,
)
from repro.errors import CycleBudgetExhausted
from repro.experiments.common import (
    QUICK,
    Experiment,
    ExperimentResult,
    Scale,
    Scheme,
    base_config,
    mean,
    summary_spec,
    sweep,
    unicast_latency,
)
from repro.experiments.parallel import ExecutionPlan, Key, RunSpec
from repro.metrics.probe import central_buffer_occupancy_by_level
from repro.metrics.report import Table
from repro.network.builder import Network
from repro.network.simulation import run_simulation
from repro.traffic.base import Workload
from repro.traffic.bimodal import BimodalTraffic
from repro.traffic.hotspot import HotspotTraffic


# ----------------------------------------------------------------------
# X1: barrier scaling
# ----------------------------------------------------------------------
class FullBarrier(Workload):
    """Every host enters one barrier at cycle 0; over when it completes."""

    name = "barrier"
    #: the barrier being measured, created by :meth:`start`
    operation: TreeCollective

    def __init__(self, release: ReleaseScheme) -> None:
        self.release = release

    def start(self, network: Network) -> None:
        engine = TreeCollectiveEngine(network.nodes)
        hosts = range(network.num_hosts)
        operation = engine.barrier(list(hosts), release=self.release)
        self.operation = operation

        def enter_all() -> None:
            for host in hosts:
                engine.contribute(operation, host)

        network.sim.schedule_at(0, enter_all)

    def finished(self, network: Network) -> bool:
        return self.operation.complete


def _run_barrier(
    num_hosts: int,
    seed: int,
    release: ReleaseScheme,
    max_cycles: int,
) -> Dict[str, float]:
    """Worker: one full-system barrier; returns latency and skew."""
    workload = FullBarrier(release)
    run = run_simulation(
        base_config(num_hosts, seed=seed), workload, max_cycles=max_cycles
    )
    if not run.completed:
        raise CycleBudgetExhausted(
            f"{num_hosts}-host barrier still open after {run.cycles} cycles"
        )
    operation = workload.operation
    run.network.close()
    return {"latency": operation.last_latency, "skew": operation.skew}


def _x1_spec(p, key, num_hosts, release, seed):
    return RunSpec(
        key=key,
        fn=_run_barrier,
        kwargs=dict(
            num_hosts=num_hosts,
            seed=seed,
            release=release,
            max_cycles=p.scale.max_cycles,
        ),
    )


#: X1: full-system barrier latency/skew vs. N for both releases
run_barrier_scaling = sweep(
    "x1",
    "x1_barrier",
    defaults=dict(sizes=(16, 64, 256)),
    axes=lambda p: [("num_hosts", p.sizes), ("release", ReleaseScheme)],
    spec=_x1_spec,
    measures={
        "latency": lambda p, runs: mean([run["latency"] for run in runs]),
        "skew": lambda p, runs: mean([run["skew"] for run in runs]),
    },
    title=lambda p: (
        "X1: barrier synchronization — latency and release skew [cycles]"
    ),
    columns=lambda p: [
        "N", "lat@hw-release", "skew@hw-release",
        "lat@sw-release", "skew@sw-release",
    ],
)
#: the names the performance ledger imports
plan_barrier_scaling = run_barrier_scaling.plan
reduce_barrier_scaling = run_barrier_scaling.reduce


# ----------------------------------------------------------------------
# X2: hot-spot traffic
# ----------------------------------------------------------------------
def _x2_spec(p, key, fraction, scheme, seed):
    return summary_spec(
        key,
        scheme.apply(base_config(p.num_hosts, seed=seed)),
        p.scale,
        HotspotTraffic,
        load=p.load,
        hotspot_fraction=fraction,
        hotspot_host=0,
        payload_flits=p.payload_flits,
        warmup_cycles=p.scale.warmup_cycles,
        measure_cycles=p.scale.measure_cycles,
    )


_X2_SCHEMES = (Scheme.CB_HW, Scheme.IB_HW)

#: X2: hot-spot unicast — latency vs. hot fraction, CB vs. IB
run_hotspot = sweep(
    "x2",
    "x2_hotspot",
    defaults=dict(
        num_hosts=64,
        load=0.3,
        fractions=(0.0, 0.02, 0.05, 0.10),
        payload_flits=32,
    ),
    axes=lambda p: [("fraction", p.fractions), ("scheme", _X2_SCHEMES)],
    spec=_x2_spec,
    measures={"latency": unicast_latency},
    title=lambda p: (
        f"X2: hot-spot traffic (N={p.num_hosts}, "
        f"load={p.load}) — unicast latency [cycles]"
    ),
    columns=lambda p: ["hot fraction"] + [s.value for s in _X2_SCHEMES],
    chart=("fraction", "latency", "scheme"),
)


# ----------------------------------------------------------------------
# X3: buffer occupancy
# ----------------------------------------------------------------------
def _run_occupancy(
    config, workload_kwargs: Dict[str, object], max_cycles: int
) -> Dict[int, float]:
    """Worker: one bimodal run; returns occupancy by switch level."""
    run = run_simulation(
        config, BimodalTraffic(**workload_kwargs), max_cycles=max_cycles
    )
    occupancy = central_buffer_occupancy_by_level(run.network)
    run.network.close()
    return occupancy


def plan_buffer_occupancy(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    load: float = 0.3,
    degree: int = 8,
) -> ExecutionPlan:
    """Declare X3's (scheme x seed) grid."""
    schemes = [Scheme.CB_HW, Scheme.SW]
    seeds = scale.seeds()
    specs = []
    for scheme in schemes:
        for seed in seeds:
            specs.append(
                RunSpec(
                    key=(scheme.value, seed),
                    fn=_run_occupancy,
                    kwargs=dict(
                        config=scheme.apply(base_config(num_hosts, seed=seed)),
                        workload_kwargs=dict(
                            load=load,
                            multicast_fraction=1.0 / 16.0,
                            degree=degree,
                            payload_flits=32,
                            scheme=scheme.multicast_scheme,
                            warmup_cycles=scale.warmup_cycles,
                            measure_cycles=scale.measure_cycles,
                        ),
                        max_cycles=scale.max_cycles,
                    ),
                )
            )
    meta = dict(
        num_hosts=num_hosts,
        load=load,
        degree=degree,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("x3", specs, meta)


def reduce_buffer_occupancy(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run occupancy maps into X3's per-level table."""
    meta = plan.meta
    schemes = meta["schemes"]
    table = Table(
        f"X3: mean central-buffer occupancy by level "
        f"(N={meta['num_hosts']}, load={meta['load']}, "
        f"d={meta['degree']}) [chunks]",
        ["level"] + [scheme.value for scheme in schemes],
    )
    result = ExperimentResult("x3_occupancy", table)
    per_scheme = {}
    for scheme in schemes:
        occupancy_sums: dict = {}
        for seed in meta["seeds"]:
            for level, value in results[(scheme.value, seed)].items():
                occupancy_sums.setdefault(level, []).append(value)
        per_scheme[scheme] = {
            level: mean(values) for level, values in occupancy_sums.items()
        }
    levels = sorted(per_scheme[schemes[0]])
    for level in levels:
        cells = [level]
        for scheme in schemes:
            value = per_scheme[scheme][level]
            cells.append(round(value, 2))
            result.rows.append(
                {
                    "level": level,
                    "scheme": scheme.value,
                    "occupancy": value,
                }
            )
        table.add_row(*cells)
    return result


#: X3: central-buffer occupancy by level under bimodal traffic
run_buffer_occupancy = Experiment(
    "x3", plan_buffer_occupancy, reduce_buffer_occupancy,
)
