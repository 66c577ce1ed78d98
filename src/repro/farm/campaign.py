"""The campaign driver: shard a plan, drive a backend, merge the story.

:func:`run_campaign` runs a plan through the one plan loop
(:func:`repro.store.memo.run_plan` — store hits never reach a worker,
duplicate specs coalesce onto one leader, completed leaders are
journaled) with the farm as that loop's executor: deal the executing
leaders into shards (:func:`~repro.farm.scheduler.shard_specs`), keep
every live worker busy, collect completions and failures as they land,
and requeue the in-flight spec of any worker that dies.  The campaign
fails only when *every* worker is dead with work remaining — a single
survivor finishes the whole plan.

Bit-identity: the driver decides *where and when* specs execute, never
*what they compute*.  Values come back as the same pickles the
multiprocessing pool path round-trips, outcomes are reduced by key in
declared grid order downstream, and journaling happens only in this
(parent) process after the exactly-one-leader check — so any backend x
shard count x steal schedule x failure pattern yields the same merged
table, and a campaign resumed after a crash completes bit-identically
from its journaled prefix.  ``tests/farm/`` holds the proof: the
hypothesis scheduling properties and the fault-injection suite.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.experiments.parallel import (
    ExecutionPlan,
    Key,
    ProgressFn,
    RunOutcome,
    RunSpec,
)
from repro.farm.backends import (
    FarmError,
    FarmWorkerError,
    WorkerBackend,
    WorkerFailure,
)
from repro.farm.scheduler import (
    ShardScheduler,
    SpecProvenance,
    StealPolicy,
)
from repro.obs.manifest import RunManifest
from repro.store.memo import run_plan

__all__ = [
    "CampaignResult",
    "FarmError",
    "FarmWorkerError",
    "WorkerReport",
    "run_campaign",
]


@dataclass
class WorkerReport:
    """One worker's share of a campaign."""

    label: str
    runs: int = 0
    work_seconds: float = 0.0
    #: reason the worker died mid-campaign, empty if it survived
    failure: str = ""


@dataclass
class CampaignResult:
    """Everything one campaign produced, results and provenance alike."""

    plan: str
    backend: str
    shards: int
    outcomes: List[RunOutcome]
    workers: List[WorkerReport]
    #: per-spec dispatch history for every executing leader
    provenance: Dict[Key, SpecProvenance]
    steals: int = 0
    requeues: int = 0
    #: hello-frame manifests, by worker label (fleet backend only)
    worker_manifests: Dict[str, Dict[str, Any]] = field(
        default_factory=dict
    )

    def manifest(self, **extras: Any) -> RunManifest:
        """One merged campaign manifest, per-worker provenance inside.

        The fleet workers each announced a full
        :class:`~repro.obs.manifest.RunManifest` in their hello frame;
        this folds them (plus dispatch statistics) into the extras of a
        single parent-side manifest, so one JSON file answers both
        "what produced this table?" and "which processes took part?".
        """
        return RunManifest.collect(
            jobs=self.shards,
            farm_backend=self.backend,
            farm_shards=self.shards,
            farm_plan=self.plan,
            farm_steals=self.steals,
            farm_requeues=self.requeues,
            farm_workers={
                report.label: {
                    "runs": report.runs,
                    "work_seconds": round(report.work_seconds, 6),
                    "failure": report.failure,
                    "manifest": self.worker_manifests.get(
                        report.label
                    ),
                }
                for report in self.workers
            },
            **extras,
        )


def run_campaign(
    plan: ExecutionPlan,
    backend: WorkerBackend,
    shards: int,
    store: Optional[Any] = None,
    refresh: bool = False,
    progress: Optional[ProgressFn] = None,
    steal_policy: Optional[StealPolicy] = None,
) -> CampaignResult:
    """Execute ``plan`` as a sharded campaign on ``backend``.

    This is :func:`~repro.store.memo.run_plan` with the farm as its
    executor, so ``store`` means what it means everywhere: hits are
    emitted without touching a worker, duplicates coalesce, and every
    executed leader is journaled *in this process, on completion* —
    which is what makes a killed campaign resumable (rerun it; the
    journaled prefix comes back as hits and only the unfinished tail
    executes).  ``progress`` sees every outcome with a running count
    over the whole plan.

    Raises :class:`FarmError` when every worker has died with work
    remaining, and :class:`~repro.farm.transport.BackendUnavailable`
    (from ``backend.start``, before any outcome is emitted) when the
    backend cannot run here at all.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    result = CampaignResult(
        plan=plan.name,
        backend=backend.kind,
        shards=shards,
        outcomes=[],
        workers=[
            WorkerReport(label=backend.label(index))
            for index in range(shards)
        ],
        provenance={},
    )
    result.outcomes = run_plan(
        plan,
        store,
        partial(_farm_executor, result, backend, steal_policy),
        refresh=refresh,
        progress=progress,
    )
    return result


@contextmanager
def _farm_executor(
    result: CampaignResult,
    backend: WorkerBackend,
    steal_policy: Optional[StealPolicy],
    leaders: Sequence[RunSpec],
) -> Iterator[Iterable[RunOutcome]]:
    """The farm's executor: deal ``leaders`` into shards, start the
    backend, drive it, and leave the dispatch story in ``result``."""
    scheduler = ShardScheduler(
        leaders, result.shards, steal_policy=steal_policy
    )
    result.provenance = scheduler.provenance
    try:
        backend.start(result.shards)
        yield _drive(result, backend, scheduler)
    finally:
        backend.close()
    result.steals = scheduler.steals
    result.requeues = scheduler.requeues
    result.worker_manifests = backend.manifests()


def _drive(
    result: CampaignResult,
    backend: WorkerBackend,
    scheduler: ShardScheduler,
) -> Iterator[RunOutcome]:
    """Keep every live worker busy; yield leaders as they complete."""
    shards = result.shards
    busy: Dict[int, RunSpec] = {}
    dead: set = set()
    while scheduler.pending or busy:
        for worker in range(shards):
            if worker in busy or worker in dead:
                continue
            spec = scheduler.next_for(worker)
            if spec is None:
                break
            busy[worker] = spec
            backend.dispatch(worker, spec)
        if not busy:
            raise FarmError(
                f"campaign {result.plan!r}: all {shards} worker(s) "
                f"dead with {scheduler.pending} spec(s) unfinished"
            )
        event = backend.collect()
        if isinstance(event, WorkerFailure):
            dead.add(event.worker)
            result.workers[event.worker].failure = event.reason
            lost = busy.pop(event.worker, None)
            if lost is not None:
                scheduler.requeue(lost)
            continue
        busy.pop(event.worker, None)
        scheduler.record_completion(event.spec.key, event.worker)
        report = result.workers[event.worker]
        report.runs += 1
        report.work_seconds += event.wall_seconds
        yield RunOutcome(
            key=event.spec.key,
            value=event.value,
            wall_seconds=event.wall_seconds,
        )
