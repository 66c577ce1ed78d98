"""Micro-benchmarks of single layers, called from the traced run only.

Each times a tight loop over public functions of one layer and returns
the median of a few batches, so one slow batch does not set the number.
They explain an end-to-end metric; they are never one themselves.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence

from repro.experiments.parallel import ExecutionPlan, RunSpec
from repro.farm.protocol import (
    FRAME_JOB,
    FRAME_RESULT,
    decode_frame,
    encode_frame,
    make_frame,
    pack,
    unpack,
)
from repro.farm.scheduler import ShardScheduler
from repro.flits.destset import DestinationSet
from repro.flits.encoding import BitStringEncoding
from repro.flits.packed import SpanQueue
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.store import MemoryStore, partition_plan, spec_key
from repro.store.codec import decode_value, encode_value

from common import median

BATCHES = 5


def _per_op(batch: Callable[[], int], scale: float) -> float:
    """Median over batches of (seconds per operation) x ``scale``;
    ``batch`` does its work and returns how many operations it did."""
    costs: List[float] = []
    for _ in range(BATCHES):
        began = perf_counter()
        operations = batch()
        costs.append((perf_counter() - began) / operations * scale)
    return median(costs)


class _Rearm(Component):
    """Re-arms itself ``gap`` cycles ahead: gap 1 takes the kernel's
    next-cycle bucket, a larger gap the far-wake heap."""

    def __init__(self, name: str, gap: int) -> None:
        super().__init__(name)
        self.gap = gap
        self.ticks = 0

    def tick(self, now: int) -> None:
        self.ticks += 1
        self.wake_at(now + self.gap)


def sim_wake_ns() -> float:
    """ns per wake scheduled and dispatched, half bucket, half heap."""

    def batch() -> int:
        sim = Simulator(seed=1)
        stubs = [
            sim.add_component(_Rearm(f"c{index}", 1 + 2 * (index % 2)))
            for index in range(64)
        ]
        sim.run(1_500)
        return sum(stub.ticks for stub in stubs)  # type: ignore[attr-defined]

    return _per_op(batch, 1e9)


def spanq_ns_per_flit() -> float:
    """ns per flit through ``SpanQueue`` push + take, as many moves of
    one flit as of thirty-two."""
    worm: Any = object()

    def batch() -> int:
        queue = SpanQueue()
        flits = 0
        for span in (1, 32):
            for move in range(4_000):
                queue.push_span(move, worm, 0, span)
                flits += queue.take(move + span)[2]  # type: ignore[index]
        return flits

    return _per_op(batch, 1e9)


def header_codec_us(seed: int) -> float:
    """us to form a 16-of-64 bit-string header (set, phases, length)
    and decode it against four reachability masks, as a switch does."""
    rng = random.Random(seed)
    encoding = BitStringEncoding(num_hosts=64, flit_payload_bits=16)
    groups = [rng.sample(range(64), 16) for _ in range(200)]
    masks = [0xFFFF << (16 * port) for port in range(4)]

    def batch() -> int:
        for group in groups:
            dests = DestinationSet.from_ids(64, group)
            encoding.header_flits(dests)
            for phase in encoding.phases(dests):
                for mask in masks:
                    len(phase.intersect_mask(mask))
        return len(groups)

    return _per_op(batch, 1e6)


def store_micro(specs: Sequence[RunSpec], value: Any) -> Dict[str, float]:
    """us per spec or value for the store's pure steps."""
    specs = list(specs[:1_000])
    encoded = encode_value(value)

    def hashing() -> int:
        for spec in specs:
            spec_key(spec)
        return len(specs)

    def encoding() -> int:
        for _ in specs:
            encode_value(value)
        return len(specs)

    def decoding() -> int:
        for _ in specs:
            decode_value(encoded)
        return len(specs)

    def partition() -> int:
        partition_plan(ExecutionPlan("micro", specs), MemoryStore())
        return len(specs)

    return {
        "store.hash_us_per_spec": _per_op(hashing, 1e6),
        "store.encode_us_per_value": _per_op(encoding, 1e6),
        "store.decode_us_per_value": _per_op(decoding, 1e6),
        "store.partition_us_per_spec": _per_op(partition, 1e6),
    }


def farm_micro(specs: Sequence[RunSpec], value: Any) -> Dict[str, float]:
    """us per spec for the farm's pure steps: one job frame and one
    result frame made, encoded, decoded and unpacked; one spec dealt
    and completed by the shard scheduler."""
    specs = list(specs[:500])

    def frames() -> int:
        for seq, spec in enumerate(specs):
            job = decode_frame(
                encode_frame(make_frame(FRAME_JOB, seq=seq, spec=pack(spec)))
            )
            unpack(job["spec"])
            result = decode_frame(
                encode_frame(
                    make_frame(
                        FRAME_RESULT,
                        seq=seq,
                        value=pack(value),
                        wall_seconds=0.0,
                    )
                )
            )
            unpack(result["value"])
        return len(specs)

    def scheduling() -> int:
        scheduler = ShardScheduler(specs, 2)
        worker = 0
        while True:
            spec = scheduler.next_for(worker)
            if spec is None:
                return len(specs)
            scheduler.record_completion(spec.key, worker)
            worker ^= 1

    return {
        "farm.frame_us_per_roundtrip": _per_op(frames, 1e6),
        "farm.sched_us_per_spec": _per_op(scheduling, 1e6),
    }
