"""E3: multicast latency vs. message length.

Degree held at 8, payload swept.  Both schemes grow linearly in the
payload (serialization on the injection link), but the software scheme's
slope is steeper: every binomial phase re-serializes the full message,
so the absolute hardware advantage *widens* with message length.
"""

from __future__ import annotations

from repro.experiments.common import (
    Scheme,
    base_config,
    op_latency,
    summary_spec,
    sweep,
)
from repro.traffic.multicast import SingleMulticast

DEFAULT_LENGTHS = (16, 32, 64, 128, 256)


def _buffer_for(num_hosts: int, length: int) -> int:
    """A central buffer large enough for the per-input quota at this
    message length — one worst-case packet, in whole chunks, for each of
    the switch's ``2 * arity`` ports — grown beyond the 4 KB default only
    when needed."""
    config = base_config(num_hosts, max_packet_payload_flits=max(128, length))
    chunks = -(-config.max_packet_flits() // config.chunk_flits)
    return max(2048, 2 * config.arity * chunks * config.chunk_flits)


def _spec(p, key, sized_length, scheme, seed):
    length, buffer_flits = sized_length
    return summary_spec(
        key,
        scheme.apply(
            base_config(
                p.num_hosts,
                seed=seed,
                max_packet_payload_flits=max(128, length),
                central_buffer_flits=buffer_flits,
            )
        ),
        p.scale,
        SingleMulticast,
        source=seed % p.num_hosts,
        degree=p.degree,
        payload_flits=length,
        scheme=scheme.multicast_scheme,
    )


#: E3: per-(length, scheme) last-arrival latencies
run_length_sweep = sweep(
    "e3",
    "e3_length_sweep",
    defaults=dict(
        num_hosts=64,
        lengths=DEFAULT_LENGTHS,
        degree=8,
        schemes=tuple(Scheme),
    ),
    # each length carries the buffer its packets need, sized once
    axes=lambda p: [
        ("length", [(n, _buffer_for(p.num_hosts, n)) for n in p.lengths]),
        ("scheme", p.schemes),
    ],
    spec=_spec,
    measures={"latency": op_latency},
    title=lambda p: (
        f"E3: single multicast latency vs. message length "
        f"(N={p.num_hosts}, d={p.degree}) [cycles]"
    ),
    columns=lambda p: ["payload_flits"] + [s.value for s in p.schemes],
    chart=("length", "latency", "scheme"),
)
#: the names the performance ledger imports
plan_length_sweep = run_length_sweep.plan
reduce_length_sweep = run_length_sweep.reduce
