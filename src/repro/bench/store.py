"""Result-store benchmark gates (part of ``python -m repro bench``).

Two fixed-threshold gates guard the store's reason to exist:

*warm campaign*
    a campaign re-run against the journal it just wrote — including
    reopening the store and rebuilding its index — must cost at most
    :data:`WARM_RATIO_MAX` of the cold wall time;
*duplicate coalescing*
    a grid in which every unique spec appears twice (50% duplicates)
    must run at least :data:`DEDUP_SPEEDUP_MIN` times faster through a
    *fresh* store than plainly — the gain must come from coalescing
    alone, not journal hits.

Unlike the kernel scenarios these gates are absolute, not
baseline-relative: the ratios they measure are dominated by how many
simulations were avoided, which does not vary with host speed.

Both campaigns use the same worker as the real experiment grids
(:func:`repro.experiments.common.simulate_summary`), and every gate run
doubles as a correctness check: the resolved ``{key: value}`` mappings
of the plain, cold, warm, and ``jobs=2`` warm runs are asserted
bit-identical before any timing is reported.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.bench.kernel import BenchmarkError
from repro.experiments.common import base_config, simulate_summary
from repro.experiments.parallel import (
    ExecutionPlan,
    RunSpec,
    Stopwatch,
    _plain_outcomes,
    resolve,
)
from repro.store.backend import JournalStore
from repro.store.memo import memoized_outcomes
from repro.traffic.unicast import UniformRandomUnicast

#: warm wall time must be at most this fraction of cold wall time
WARM_RATIO_MAX = 0.1

#: minimum speedup of a 50%-duplicate grid from coalescing alone
DEDUP_SPEEDUP_MIN = 1.8

#: timed runs of each leg of the 50%-duplicate pair
DEDUP_REPEATS = 3

#: loads swept by the benchmark campaign (unique grid points)
_LOADS = (0.05, 0.1, 0.2, 0.4)


def _spec(
    key_prefix: str, seed: int, load: float, measure_cycles: int
) -> RunSpec:
    """One campaign grid point (16-host unicast, the cheapest system)."""
    return RunSpec(
        key=(key_prefix, seed, load),
        fn=simulate_summary,
        kwargs=dict(
            config=base_config(num_hosts=16, seed=seed),
            workload_cls=UniformRandomUnicast,
            workload_kwargs={
                "load": load,
                "payload_flits": 16,
                "warmup_cycles": 200,
                "measure_cycles": measure_cycles,
            },
            max_cycles=50_000,
        ),
    )


def campaign_plan(smoke: bool = False) -> ExecutionPlan:
    """The warm/cold campaign: a (seed x load) grid of unique specs."""
    measure = 1_500 if smoke else 3_000
    seeds = (1,) if smoke else (1, 2)
    specs = [
        _spec("campaign", seed, load, measure)
        for seed in seeds
        for load in _LOADS
    ]
    return ExecutionPlan("store-campaign", specs)


def dedup_plan(smoke: bool = False) -> ExecutionPlan:
    """A grid where every unique spec appears twice (50% duplicates).

    The duplicate carries a different grid key — as two sweep points
    (or two experiments sharing one plan) would — but hashes to the
    same content address, so the store executes it once.
    """
    measure = 1_500 if smoke else 3_000
    loads = _LOADS
    specs = [
        _spec(prefix, 7, load, measure)
        for load in loads
        for prefix in ("first", "second")
    ]
    return ExecutionPlan("store-dedup", specs)


@dataclass(frozen=True)
class StoreBenchResult:
    """Timings and store counters from one gate run."""

    campaign_runs: int
    cold_seconds: float
    warm_seconds: float
    warm_hits: int
    dedup_runs: int
    dedup_plain_seconds: float
    dedup_coalesced_seconds: float
    dedup_coalesced: int
    entries: int
    segments: int
    bytes: int

    @property
    def warm_ratio(self) -> float:
        """Warm wall time as a fraction of cold (lower is better)."""
        if self.cold_seconds <= 0:
            return float("inf")
        return self.warm_seconds / self.cold_seconds

    @property
    def dedup_speedup(self) -> float:
        """Plain over coalesced wall time on the 50%-duplicate grid."""
        if self.dedup_coalesced_seconds <= 0:
            return float("inf")
        return self.dedup_plain_seconds / self.dedup_coalesced_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign_runs": self.campaign_runs,
            "cold_seconds": round(self.cold_seconds, 4),
            "warm_seconds": round(self.warm_seconds, 4),
            "warm_ratio": round(self.warm_ratio, 4),
            "warm_hits": self.warm_hits,
            "dedup_runs": self.dedup_runs,
            "dedup_plain_seconds": round(self.dedup_plain_seconds, 4),
            "dedup_coalesced_seconds": round(
                self.dedup_coalesced_seconds, 4
            ),
            "dedup_speedup": round(self.dedup_speedup, 3),
            "dedup_coalesced": self.dedup_coalesced,
            "entries": self.entries,
            "segments": self.segments,
            "bytes": self.bytes,
        }

    def render(self) -> str:
        return (
            f"store: cold {self.cold_seconds:.2f}s -> warm "
            f"{self.warm_seconds:.2f}s over {self.campaign_runs} run(s) "
            f"(ratio {self.warm_ratio:.3f}, {self.warm_hits} hits); "
            f"50%-duplicate grid {self.dedup_plain_seconds:.2f}s -> "
            f"{self.dedup_coalesced_seconds:.2f}s "
            f"({self.dedup_speedup:.2f}x from coalescing)"
        )


def run_store_bench(smoke: bool = False) -> StoreBenchResult:
    """Run both gate campaigns; raise on any result divergence."""
    plan = campaign_plan(smoke)
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        store_dir = Path(tmp) / "store"

        plain_values = resolve(_plain_outcomes(plan, jobs=1))

        watch = Stopwatch()
        with JournalStore(store_dir) as store:
            cold = memoized_outcomes(plan, store, jobs=1)
        cold_seconds = watch.elapsed()

        # the warm run pays the full resume cost: reopen, index
        # rebuild, re-hash every spec, decode every value
        watch.restart()
        with JournalStore(store_dir) as store:
            warm = memoized_outcomes(plan, store, jobs=1)
        warm_seconds = watch.elapsed()

        with JournalStore(store_dir) as store:
            warm_pooled = memoized_outcomes(plan, store, jobs=2)
            stats = store.stats()

        for label, outcomes in (
            ("cold", cold), ("warm", warm), ("warm jobs=2", warm_pooled)
        ):
            if resolve(outcomes) != plain_values:
                raise BenchmarkError(
                    f"store bench: {label} campaign values diverged "
                    "from plain execution"
                )
        warm_hits = sum(1 for o in warm if o.source == "hit")
        if warm_hits != len(plan.specs):
            raise BenchmarkError(
                f"store bench: warm campaign expected "
                f"{len(plan.specs)} hits, got {warm_hits}"
            )

    # each leg is the minimum of DEDUP_REPEATS runs: the gate's margin
    # (true ratio ~1.95x against 1.8x) is narrower than one run's swing
    dedup = dedup_plan(smoke)
    plain_runs, coalesced_runs = [], []
    for _ in range(DEDUP_REPEATS):
        watch.restart()
        dedup_plain = resolve(_plain_outcomes(dedup, jobs=1))
        plain_runs.append(watch.elapsed())
        with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
            watch.restart()
            with JournalStore(Path(tmp) / "store") as store:
                coalesced_outcomes = memoized_outcomes(dedup, store, jobs=1)
            coalesced_runs.append(watch.elapsed())

    if resolve(coalesced_outcomes) != dedup_plain:
        raise BenchmarkError(
            "store bench: coalesced grid values diverged from plain "
            "execution"
        )
    coalesced_count = sum(
        1 for o in coalesced_outcomes if o.source == "coalesced"
    )
    if coalesced_count != len(dedup.specs) // 2:
        raise BenchmarkError(
            f"store bench: expected {len(dedup.specs) // 2} coalesced "
            f"run(s), got {coalesced_count}"
        )

    return StoreBenchResult(
        campaign_runs=len(plan.specs),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        warm_hits=warm_hits,
        dedup_runs=len(dedup.specs),
        dedup_plain_seconds=min(plain_runs),
        dedup_coalesced_seconds=min(coalesced_runs),
        dedup_coalesced=coalesced_count,
        entries=int(stats["entries"]),
        segments=int(stats["segments"]),
        bytes=int(stats["bytes"]),
    )


def check_store_result(result: StoreBenchResult) -> List[str]:
    """Fixed-threshold gate failures (empty when both gates pass)."""
    failures = []
    if result.warm_ratio > WARM_RATIO_MAX:
        failures.append(
            f"store: warm campaign ratio {result.warm_ratio:.3f} "
            f"exceeds {WARM_RATIO_MAX} "
            f"({result.warm_seconds:.2f}s warm vs "
            f"{result.cold_seconds:.2f}s cold)"
        )
    if result.dedup_speedup < DEDUP_SPEEDUP_MIN:
        failures.append(
            f"store: 50%-duplicate grid speedup "
            f"{result.dedup_speedup:.2f}x fell below "
            f"{DEDUP_SPEEDUP_MIN}x"
        )
    return failures
