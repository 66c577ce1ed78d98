"""E3: multicast latency vs. message length.

Degree held at 8, payload swept.  Both schemes grow linearly in the
payload (serialization on the injection link), but the software scheme's
slope is steeper: every binomial phase re-serializes the full message,
so the absolute hardware advantage *widens* with message length.
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

DEFAULT_LENGTHS = (16, 32, 64, 128, 256)


def plan_length_sweep(
    scale: Scale = QUICK,
    num_hosts: int = 64,
    lengths: Sequence[int] = DEFAULT_LENGTHS,
    degree: int = 8,
    schemes: Optional[Sequence[Scheme]] = None,
) -> ExecutionPlan:
    """Declare E3's (length x scheme x seed) grid of independent runs."""
    schemes = list(schemes) if schemes is not None else list(Scheme)
    seeds = scale.seeds()
    specs = []
    for length in lengths:
        for scheme in schemes:
            for seed in seeds:
                specs.append(
                    summary_spec(
                        (length, scheme.value, seed),
                        scheme.apply(
                            base_config(
                                num_hosts,
                                seed=seed,
                                max_packet_payload_flits=max(128, length),
                                central_buffer_flits=_buffer_for(
                                    num_hosts, length
                                ),
                            )
                        ),
                        scale,
                        SingleMulticast,
                        source=seed % num_hosts,
                        degree=degree,
                        payload_flits=length,
                        scheme=scheme.multicast_scheme,
                    )
                )
    meta = dict(
        num_hosts=num_hosts,
        lengths=tuple(lengths),
        degree=degree,
        schemes=schemes,
        seeds=seeds,
    )
    return ExecutionPlan("e3", specs, meta)


def reduce_length_sweep(
    plan: ExecutionPlan, results: Dict[Key, object]
) -> ExperimentResult:
    """Fold per-run summaries into E3's table, in declared grid order."""
    meta = plan.meta
    schemes = meta["schemes"]
    table = Table(
        f"E3: single multicast latency vs. message length "
        f"(N={meta['num_hosts']}, d={meta['degree']}) [cycles]",
        ["payload_flits"] + [scheme.value for scheme in schemes],
    )
    result = ExperimentResult("e3_length_sweep", table)
    for length in meta["lengths"]:
        cells = [length]
        for scheme in schemes:
            latency = mean(
                [
                    results[(length, scheme.value, seed)].op_last_latency.mean
                    for seed in meta["seeds"]
                ]
            )
            cells.append(latency)
            result.rows.append(
                {"length": length, "scheme": scheme.value, "latency": latency}
            )
        table.add_row(*cells)
    return result


#: E3: per-(length, scheme) last-arrival latencies
run_length_sweep = Experiment(
    "e3", plan_length_sweep, reduce_length_sweep,
    chart=("length", "latency", "scheme"),
)


def _buffer_for(num_hosts: int, length: int) -> int:
    """A central buffer large enough for the per-input quota at this
    message length (grown beyond the 4 KB default only when needed)."""
    header_worst = 1 + -(-num_hosts // 16)
    packet = header_worst + max(128, length)
    chunks = -(-packet // 8)
    needed = 8 * chunks * 8
    return max(2048, needed)
