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
    op_latency,
    summary_spec,
    sweep,
    unicast_latency,
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
def _a1_spec(p, key, bandwidth, seed):
    return summary_spec(
        key,
        base_config(
            p.num_hosts,
            seed=seed,
            cb_write_bandwidth=bandwidth,
            cb_read_bandwidth=bandwidth,
        ),
        p.scale,
        MultipleMulticastBurst,
        num_multicasts=p.num_multicasts,
        degree=p.degree,
        payload_flits=p.payload_flits,
        scheme=Scheme.CB_HW.multicast_scheme,
    )


#: A1: E1's workload under reduced central-buffer port bandwidth
run_cb_bandwidth_ablation = sweep(
    "a1",
    "a1_cb_bandwidth",
    defaults=dict(
        num_hosts=64,
        bandwidths=(1, 2, 4, 8),
        num_multicasts=8,
        degree=8,
        payload_flits=64,
    ),
    axes=lambda p: [("bandwidth", p.bandwidths)],
    spec=_a1_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"A1: central-buffer bandwidth (N={p.num_hosts}, "
        f"m={p.num_multicasts}, d={p.degree}) "
        "— mean last-arrival latency [cycles]"
    ),
    columns=lambda p: ["flits/cycle", "cb-hw"],
    chart=("bandwidth", "latency", None),
)


# ----------------------------------------------------------------------
# A2: LCA routing mode
# ----------------------------------------------------------------------
def _a2_spec(p, key, degree, mode, seed):
    return summary_spec(
        key,
        base_config(p.num_hosts, seed=seed, multicast_mode=mode),
        p.scale,
        SingleMulticast,
        source=seed % p.num_hosts,
        degree=degree,
        payload_flits=p.payload_flits,
        scheme=Scheme.CB_HW.multicast_scheme,
    )


#: A2: turnaround vs. branch-on-up LCA routing on E2's workload
run_routing_mode_ablation = sweep(
    "a2",
    "a2_routing_mode",
    defaults=dict(num_hosts=64, degrees=(4, 8, 16, 32), payload_flits=64),
    axes=lambda p: [("degree", p.degrees), ("mode", MulticastRoutingMode)],
    spec=_a2_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"A2: multicast routing mode (N={p.num_hosts}) — "
        "mean last-arrival latency [cycles]"
    ),
    columns=lambda p: ["degree"] + [m.value for m in MulticastRoutingMode],
)
#: the names the performance ledger imports
plan_routing_mode_ablation = run_routing_mode_ablation.plan
reduce_routing_mode_ablation = run_routing_mode_ablation.reduce


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
def _a4_spec(p, key, m, mode, seed):
    return summary_spec(
        key,
        base_config(
            p.num_hosts,
            seed=seed,
            switch_architecture=SwitchArchitecture.INPUT_BUFFER,
            replication=mode,
        ),
        p.scale,
        MultipleMulticastBurst,
        num_multicasts=m,
        degree=p.degree,
        payload_flits=p.payload_flits,
        scheme=Scheme.IB_HW.multicast_scheme,
    )


#: A4: asynchronous vs. synchronous replication (paper §3).  Both modes
#: run on the input-buffer switch (synchronous replication needs the
#: per-switch arbitration of ref [6], which the IB design hosts
#: naturally).  Under concurrent multicasts, lock-step forwarding lets
#: any blocked branch stall its whole worm, and the single-worm-at-a-time
#: port arbitration serializes replication at each switch — the
#: performance argument for the paper's asynchronous choice.
run_replication_ablation = sweep(
    "a4",
    "a4_replication",
    defaults=dict(
        num_hosts=16,
        concurrency=(2, 4, 8, 16),
        degree=6,
        payload_flits=48,
    ),
    axes=lambda p: [("m", p.concurrency), ("replication", ReplicationMode)],
    spec=_a4_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"A4: replication discipline on the IB switch "
        f"(N={p.num_hosts}, d={p.degree}) "
        "— mean last-arrival latency [cycles]"
    ),
    columns=lambda p: ["m"] + [mode.value for mode in ReplicationMode],
    chart=("m", "latency", "replication"),
)
#: the names the performance ledger imports
plan_replication_ablation = run_replication_ablation.plan
reduce_replication_ablation = run_replication_ablation.reduce


# ----------------------------------------------------------------------
# A5: equal-storage comparison
# ----------------------------------------------------------------------

#: (variant name, scheme, per-input buffer override)
EQUAL_STORAGE_VARIANTS = (
    ("cb-2048-shared", Scheme.CB_HW, None),
    ("ib-minimal", Scheme.IB_HW, None),
    ("ib-2048-split", Scheme.IB_HW, 256),
)


def _a5_spec(p, key, load, variant, seed):
    _, scheme, buffer_flits = variant
    config = scheme.apply(base_config(p.num_hosts, seed=seed))
    if buffer_flits is not None:
        config = config.derived(input_buffer_flits=buffer_flits)
    return summary_spec(
        key,
        config,
        p.scale,
        UniformRandomUnicast,
        load=load,
        payload_flits=p.payload_flits,
        warmup_cycles=p.scale.warmup_cycles,
        measure_cycles=p.scale.measure_cycles,
    )


#: A5: is the central buffer's win just more silicon?  Compares three
#: switches with identical behaviourally relevant totals: the
#: central-buffer switch (2048 shared flits), the input-buffer switch at
#: its minimal legal size (one max packet per input), and the
#: input-buffer switch given the same 2048 flits of storage as the
#: central buffer (256 flits per input, ~1.9 packets each).  If sharing
#: is what matters — the claim of refs [36, 37] the paper builds on —
#: the equal-storage IB switch must still trail the CB switch.
run_equal_storage_ablation = sweep(
    "a5",
    "a5_equal_storage",
    defaults=dict(num_hosts=64, loads=(0.3, 0.45, 0.6), payload_flits=32),
    axes=lambda p: [("load", p.loads), ("variant", EQUAL_STORAGE_VARIANTS)],
    spec=_a5_spec,
    measures={"latency": unicast_latency},
    title=lambda p: (
        f"A5: equal-storage comparison (N={p.num_hosts}) — "
        "unicast latency [cycles]"
    ),
    columns=lambda p: ["load"] + [v[0] for v in EQUAL_STORAGE_VARIANTS],
    chart=("load", "latency", "variant"),
)
