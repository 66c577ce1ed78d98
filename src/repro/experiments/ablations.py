"""Ablations of the design choices DESIGN.md calls out.

A1 — central-buffer bandwidth: the paper (via ref [33]) argues flit-wide
RAMs and register pipelines perform as well as a chunk-wide crossbar; we
sweep the per-cycle read/write caps to show where bandwidth starts to
matter.

A2 — LCA routing mode: turnaround (replicate only on the way down) vs.
branch-on-up (replicate toward in-subtree destinations while ascending).

A3 — header encodings: bit-string (single phase, O(N) header) vs.
multiport (tiny header, multiple phases for non-product sets) as system
size grows.

A4 — asynchronous vs. synchronous replication on the IB switch.

A5 — equal-storage comparison: is the central buffer's win just silicon?
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.schemes import SwitchArchitecture
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
from repro.flits.destset import DestinationSet
from repro.metrics.report import Table
from repro.network.config import EncodingKind
from repro.routing.base import MulticastRoutingMode
from repro.switches.base import ReplicationMode
from repro.traffic.multicast import MultipleMulticastBurst, SingleMulticast
from repro.traffic.unicast import UniformRandomUnicast


# ----------------------------------------------------------------------
# A1: central-buffer bandwidth
# ----------------------------------------------------------------------
def plan_cb_bandwidth_ablation(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    bandwidths: Sequence[int] = (1, 2, 4, 8),
    num_multicasts: int = 8,
    degree: int = 8,
    payload_flits: int = 64,
) -> ExecutionPlan:
    """Declare A1's (bandwidth x seed) grid."""
    seeds = scale.seeds()
    specs = []
    for bandwidth in bandwidths:
        for seed in seeds:
            specs.append(
                summary_spec(
                    (bandwidth, seed),
                    base_config(
                        num_hosts,
                        seed=seed,
                        cb_write_bandwidth=bandwidth,
                        cb_read_bandwidth=bandwidth,
                    ),
                    scale,
                    MultipleMulticastBurst,
                    num_multicasts=num_multicasts,
                    degree=degree,
                    payload_flits=payload_flits,
                    scheme=Scheme.CB_HW.multicast_scheme,
                )
            )
    meta = dict(
        num_hosts=num_hosts,
        bandwidths=tuple(bandwidths),
        num_multicasts=num_multicasts,
        degree=degree,
        seeds=seeds,
    )
    return ExecutionPlan("a1", specs, meta)


def reduce_cb_bandwidth_ablation(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into A1's table, in declared grid order."""
    meta = plan.meta
    table = Table(
        f"A1: central-buffer bandwidth (N={meta['num_hosts']}, "
        f"m={meta['num_multicasts']}, d={meta['degree']}) "
        "— mean last-arrival latency [cycles]",
        ["flits/cycle", "cb-hw"],
    )
    result = ExperimentResult("a1_cb_bandwidth", table)
    for bandwidth in meta["bandwidths"]:
        latency = mean(
            [
                results[(bandwidth, seed)].op_last_latency.mean
                for seed in meta["seeds"]
            ]
        )
        table.add_row(bandwidth, latency)
        result.rows.append({"bandwidth": bandwidth, "latency": latency})
    return result


#: A1: E1's workload under reduced central-buffer port bandwidth
run_cb_bandwidth_ablation = Experiment(
    "a1", plan_cb_bandwidth_ablation, reduce_cb_bandwidth_ablation,
    chart=("bandwidth", "latency", None),
)


# ----------------------------------------------------------------------
# A2: LCA routing mode
# ----------------------------------------------------------------------
def plan_routing_mode_ablation(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    degrees: Sequence[int] = (4, 8, 16, 32),
    payload_flits: int = 64,
) -> ExecutionPlan:
    """Declare A2's (degree x mode x seed) grid."""
    modes = list(MulticastRoutingMode)
    seeds = scale.seeds()
    specs = []
    for degree in degrees:
        for mode in modes:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (degree, mode.value, seed),
                        base_config(num_hosts, seed=seed, multicast_mode=mode),
                        scale,
                        SingleMulticast,
                        source=seed % num_hosts,
                        degree=degree,
                        payload_flits=payload_flits,
                        scheme=Scheme.CB_HW.multicast_scheme,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        degrees=tuple(degrees),
        modes=modes,
        seeds=seeds,
    )
    return ExecutionPlan("a2", specs, meta)


def reduce_routing_mode_ablation(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into A2's table, in declared grid order."""
    meta = plan.meta
    modes = meta["modes"]
    table = Table(
        f"A2: multicast routing mode (N={meta['num_hosts']}) — "
        "mean last-arrival latency [cycles]",
        ["degree"] + [mode.value for mode in modes],
    )
    result = ExperimentResult("a2_routing_mode", table)
    for degree in meta["degrees"]:
        cells = [degree]
        for mode in modes:
            latency = mean(
                [
                    results[(degree, mode.value, seed)].op_last_latency.mean
                    for seed in meta["seeds"]
                ]
            )
            cells.append(latency)
            result.rows.append(
                {"degree": degree, "mode": mode.value, "latency": latency}
            )
        table.add_row(*cells)
    return result


#: A2: turnaround vs. branch-on-up LCA routing on E2's workload
run_routing_mode_ablation = Experiment(
    "a2", plan_routing_mode_ablation, reduce_routing_mode_ablation,
)


# ----------------------------------------------------------------------
# A3: header encodings
# ----------------------------------------------------------------------
def plan_encoding_ablation(
    scale: Scale = QUICK,
    sizes: Sequence[int] = (16, 64, 256),
    degree: int = 8,
    payload_flits: int = 64,
) -> ExecutionPlan:
    """Declare A3's (size x encoding x seed) grid.

    The table reports the multicast header size each encoding needs and
    the measured operation latency (multiport pays extra phases for
    random — non-product — destination sets; bit-string pays a header
    that grows with N).
    """
    kinds = [EncodingKind.BITSTRING, EncodingKind.MULTIPORT]
    seeds = scale.seeds()
    usable = tuple(size for size in sizes if degree < size)
    specs = []
    for num_hosts in usable:
        for kind in kinds:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (num_hosts, kind.value, seed),
                        base_config(num_hosts, seed=seed, encoding=kind),
                        scale,
                        SingleMulticast,
                        source=seed % num_hosts,
                        degree=degree,
                        payload_flits=payload_flits,
                        scheme=Scheme.CB_HW.multicast_scheme,
                    )
                )
    meta = dict(
        sizes=usable,
        kinds=kinds,
        degree=degree,
        seeds=seeds,
    )
    return ExecutionPlan("a3", specs, meta)


def reduce_encoding_ablation(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into A3's table; headers are closed-form."""
    meta = plan.meta
    kinds = meta["kinds"]
    table = Table(
        f"A3: header encodings (d={meta['degree']}) — header [flits] and "
        "latency [cycles]",
        ["N", "hdr@bitstring", "hdr@multiport", "lat@bitstring",
         "lat@multiport"],
    )
    result = ExperimentResult("a3_encoding", table)
    for num_hosts in meta["sizes"]:
        headers = {}
        latencies = {}
        for kind in kinds:
            config = base_config(num_hosts, encoding=kind)
            encoding = config.build_encoding()
            headers[kind] = encoding.header_flits(
                DestinationSet.full(num_hosts)
            )
            latencies[kind] = mean(
                [
                    results[
                        (num_hosts, kind.value, seed)
                    ].op_last_latency.mean
                    for seed in meta["seeds"]
                ]
            )
        table.add_row(
            num_hosts,
            headers[EncodingKind.BITSTRING],
            headers[EncodingKind.MULTIPORT],
            latencies[EncodingKind.BITSTRING],
            latencies[EncodingKind.MULTIPORT],
        )
        result.rows.append(
            {
                "num_hosts": num_hosts,
                "header_bitstring": headers[EncodingKind.BITSTRING],
                "header_multiport": headers[EncodingKind.MULTIPORT],
                "latency_bitstring": latencies[EncodingKind.BITSTRING],
                "latency_multiport": latencies[EncodingKind.MULTIPORT],
            }
        )
    return result


#: A3: bit-string vs. multiport encoding across system sizes
run_encoding_ablation = Experiment(
    "a3", plan_encoding_ablation, reduce_encoding_ablation,
)


# ----------------------------------------------------------------------
# A4: replication discipline
# ----------------------------------------------------------------------
def plan_replication_ablation(
    scale: Scale = QUICK,
    num_hosts: int = 16,
    concurrency: Sequence[int] = (2, 4, 8, 16),
    degree: int = 6,
    payload_flits: int = 48,
) -> ExecutionPlan:
    """Declare A4's (m x mode x seed) grid.

    Both modes run on the input-buffer switch (synchronous replication
    needs the per-switch arbitration of ref [6], which the IB design
    hosts naturally).  Under concurrent multicasts, lock-step forwarding
    lets any blocked branch stall its whole worm, and the single-worm-
    at-a-time port arbitration serializes replication at each switch —
    the performance argument for the paper's asynchronous choice.
    """
    modes = list(ReplicationMode)
    seeds = scale.seeds()
    specs = []
    for m in concurrency:
        for mode in modes:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (m, mode.value, seed),
                        base_config(
                            num_hosts,
                            seed=seed,
                            switch_architecture=(
                                SwitchArchitecture.INPUT_BUFFER
                            ),
                            replication=mode,
                        ),
                        scale,
                        MultipleMulticastBurst,
                        num_multicasts=m,
                        degree=degree,
                        payload_flits=payload_flits,
                        scheme=Scheme.IB_HW.multicast_scheme,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        concurrency=tuple(concurrency),
        degree=degree,
        modes=modes,
        seeds=seeds,
    )
    return ExecutionPlan("a4", specs, meta)


def reduce_replication_ablation(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into A4's table, in declared grid order."""
    meta = plan.meta
    modes = meta["modes"]
    table = Table(
        f"A4: replication discipline on the IB switch "
        f"(N={meta['num_hosts']}, d={meta['degree']}) "
        "— mean last-arrival latency [cycles]",
        ["m"] + [mode.value for mode in modes],
    )
    result = ExperimentResult("a4_replication", table)
    for m in meta["concurrency"]:
        cells = [m]
        for mode in modes:
            latency = mean(
                [
                    results[(m, mode.value, seed)].op_last_latency.mean
                    for seed in meta["seeds"]
                ]
            )
            cells.append(latency)
            result.rows.append(
                {"m": m, "replication": mode.value, "latency": latency}
            )
        table.add_row(*cells)
    return result


#: A4: asynchronous vs. synchronous replication (paper §3)
run_replication_ablation = Experiment(
    "a4", plan_replication_ablation, reduce_replication_ablation,
    chart=("m", "latency", "replication"),
)


# ----------------------------------------------------------------------
# A5: equal-storage comparison
# ----------------------------------------------------------------------

#: (variant name, scheme, per-input buffer override)
EQUAL_STORAGE_VARIANTS = (
    ("cb-2048-shared", Scheme.CB_HW, None),
    ("ib-minimal", Scheme.IB_HW, None),
    ("ib-2048-split", Scheme.IB_HW, 256),
)


def plan_equal_storage_ablation(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    loads: Sequence[float] = (0.3, 0.45, 0.6),
    payload_flits: int = 32,
) -> ExecutionPlan:
    """Declare A5's (load x variant x seed) grid.

    Compares three switches with identical behaviourally relevant totals:
    the central-buffer switch (2048 shared flits), the input-buffer
    switch at its minimal legal size (one max packet per input), and the
    input-buffer switch given the same 2048 flits of storage as the
    central buffer (256 flits per input, ~1.9 packets each).  If sharing
    is what matters — the claim of refs [36, 37] the paper builds on —
    the equal-storage IB switch must still trail the CB switch.
    """
    seeds = scale.seeds()
    specs = []
    for load in loads:
        for name, scheme, buffer_flits in EQUAL_STORAGE_VARIANTS:
            for seed in seeds:
                config = scheme.apply(base_config(num_hosts, seed=seed))
                if buffer_flits is not None:
                    config = config.derived(input_buffer_flits=buffer_flits)
                specs.append(
                    summary_spec(
                        (load, name, seed),
                        config,
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
        seeds=seeds,
    )
    return ExecutionPlan("a5", specs, meta)


def reduce_equal_storage_ablation(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into A5's table, in declared grid order."""
    meta = plan.meta
    table = Table(
        f"A5: equal-storage comparison (N={meta['num_hosts']}) — "
        "unicast latency [cycles]",
        ["load"] + [name for name, _, _ in EQUAL_STORAGE_VARIANTS],
    )
    result = ExperimentResult("a5_equal_storage", table)
    for load in meta["loads"]:
        cells = [load]
        for name, _, _ in EQUAL_STORAGE_VARIANTS:
            latencies = []
            for seed in meta["seeds"]:
                summary = results[(load, name, seed)]
                if summary.unicast_latency.count:
                    latencies.append(summary.unicast_latency.mean)
            latency = mean(latencies)
            cells.append(latency)
            result.rows.append(
                {"load": load, "variant": name, "latency": latency}
            )
        table.add_row(*cells)
    return result


#: A5: is the central buffer's win just more silicon?
run_equal_storage_ablation = Experiment(
    "a5", plan_equal_storage_ablation, reduce_equal_storage_ablation,
    chart=("load", "latency", "variant"),
)
