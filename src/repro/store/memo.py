"""The plan loop: partition, execute, journal, merge — written once.

:func:`run_plan` is the only place a plan turns into outcomes.  Every
spec is content-addressed (:mod:`repro.store.hashing`) and the plan is
partitioned three ways:

*hits*
    the store already holds the spec's result — the outcome is decoded
    and reported immediately, with ``saved_seconds`` taken from the
    journaled execution time;
*coalesced duplicates*
    several specs in the plan share one content address — one *leader*
    executes and the duplicates fan out from its value the moment it
    completes, each costing zero execution;
*leaders*
    everything else is handed to an *executor* and journaled (with
    provenance) in this process as it completes, so a campaign killed
    half-way resumes from its partial results on the next run.

The loop's one parameter is the executor — *how* leaders get executed:
:func:`~repro.experiments.parallel.local_executor` (this process, or an
``imap_unordered`` pool), the one experiments run on, or the run-farm
library's scheduler over a ``WorkerBackend`` (:mod:`repro.farm.campaign`,
which only the performance ledger drives).  "No store" is ``store=None``: every spec
is a leader and nothing is hashed, looked up or journaled.

Specs whose kwargs cannot be canonicalised (:class:`SpecHashError`) or
whose values cannot be encoded bit-exactly (:class:`CodecError`) are
*uncacheable*: they always execute and are never journaled — the store
degrades to a no-op rather than approximate.

Every outcome, however obtained, flows through the caller's progress
callback with a running ``done``/``total`` over the *whole* plan, so
``StderrProgress`` renders warm and cold campaigns uniformly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, ContextManager, Dict, Iterable, List, Optional, Tuple

from repro.experiments.parallel import (
    SOURCE_COALESCED,
    SOURCE_HIT,
    ExecutionPlan,
    Key,
    ProgressFn,
    RunOutcome,
    RunSpec,
    local_executor,
)
from repro.store.backend import StoreEntry
from repro.store.codec import CodecError, decode_value, encode_value
from repro.store.hashing import SpecHashError, fn_reference, spec_key

#: how a plan's leaders get executed: called with the leaders, returns a
#: context manager that *starts* whatever it needs on entry (raising
#: there if it cannot) and yields the outcomes in completion order
Executor = Callable[[List[RunSpec]], ContextManager[Iterable[RunOutcome]]]


@dataclass
class PlanPartition:
    """How a plan's specs split against the store (see module docs)."""

    #: ``(spec, decoded value, journaled execution seconds)``
    hits: List[Tuple[RunSpec, Any, float]] = field(default_factory=list)
    #: specs that will execute (cache misses + uncacheable specs)
    leaders: List[RunSpec] = field(default_factory=list)
    #: leader plan-key -> store key (uncacheable leaders have none)
    store_keys: Dict[Key, str] = field(default_factory=dict)
    #: leader plan-key -> duplicate specs coalesced onto it
    duplicates: Dict[Key, List[RunSpec]] = field(default_factory=dict)

    @property
    def coalesced_count(self) -> int:
        return sum(len(specs) for specs in self.duplicates.values())


def partition_plan(
    plan: ExecutionPlan, store: Any, refresh: bool = False
) -> PlanPartition:
    """Split a plan into hits, executing leaders, and duplicates.

    ``refresh=True`` ignores journaled results (every cacheable spec
    becomes a leader or duplicate) but keeps coalescing: identical
    specs still cost one execution, and the fresh results are appended
    to the journal where they shadow the stale entries.  With
    ``store=None`` every spec is a leader without a store key: there is
    nothing to hit, coalesce or journal.
    """
    part = PlanPartition()
    if store is None:
        part.leaders = list(plan.specs)
        return part
    pending: Dict[str, Key] = {}  # store key -> leader plan key
    for spec in plan.specs:
        try:
            address = spec_key(spec)
        except SpecHashError:
            part.leaders.append(spec)
            continue
        if not refresh:
            entry = store.get(address)
            if entry is not None:
                try:
                    value = decode_value(entry.value)
                except CodecError:
                    entry = None  # foreign encoding: recompute
                else:
                    part.hits.append(
                        (spec, value, entry.wall_seconds)
                    )
                    continue
        if address in pending:
            part.duplicates.setdefault(
                pending[address], []
            ).append(spec)
            continue
        pending[address] = spec.key
        part.leaders.append(spec)
        part.store_keys[spec.key] = address
    return part


def journal_outcome(
    store: Any, address: str, spec: RunSpec, outcome: RunOutcome
) -> None:
    """Journal one executed leader's result under its store key.

    "What gets journaled, when" has exactly one definition: the leader
    completed in *this* process, its spec hashed to a content address,
    and its value encodes bit-exactly.
    """
    try:
        encoded = encode_value(outcome.value)
    except CodecError:
        return  # uncacheable value: execute-only
    store.put(
        StoreEntry(
            key=address,
            fn=fn_reference(spec),
            result_version=spec.result_version,
            value=encoded,
            wall_seconds=outcome.wall_seconds,
        )
    )


def fanout_duplicates(
    part: PlanPartition, outcome: RunOutcome
) -> List[RunOutcome]:
    """The coalesced outcomes a completed leader resolves."""
    return [
        RunOutcome(
            key=duplicate.key,
            value=outcome.value,
            wall_seconds=0.0,
            source=SOURCE_COALESCED,
            saved_seconds=outcome.wall_seconds,
        )
        for duplicate in part.duplicates.get(outcome.key, ())
    ]


def hit_outcomes(part: PlanPartition) -> List[RunOutcome]:
    """The store-answered outcomes of a partition, in plan order."""
    return [
        RunOutcome(
            key=spec.key,
            value=value,
            wall_seconds=0.0,
            source=SOURCE_HIT,
            saved_seconds=saved,
        )
        for spec, value, saved in part.hits
    ]


def run_plan(
    plan: ExecutionPlan,
    store: Any,
    execute: Executor,
    refresh: bool = False,
    progress: Optional[ProgressFn] = None,
) -> List[RunOutcome]:
    """Run ``plan`` through ``store`` on ``execute``.

    Returns one outcome per spec (hits first, then executed leaders in
    completion order, each followed by the duplicates it resolves).
    The reduce step looks values up by key, so this ordering is
    invisible in experiment output — ``tests/store/test_memo.py``
    checks the resolved mapping is identical for every executor, with
    and without a store.
    """
    part = partition_plan(plan, store, refresh=refresh)
    total = len(plan.specs)
    outcomes: List[RunOutcome] = []

    def emit(outcome: RunOutcome) -> None:
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome, len(outcomes), total)

    leaders = {spec.key: spec for spec in part.leaders}
    # entered before the first emit: an executor that cannot start here
    # raises while a caller's retry on a simpler one is still free of
    # side effects; a plan with nothing to execute starts nothing
    with execute(part.leaders) if leaders else nullcontext(()) as executed:
        for hit in hit_outcomes(part):
            emit(hit)
        for outcome in executed:
            address = part.store_keys.get(outcome.key)
            if address is not None:
                journal_outcome(
                    store, address, leaders[outcome.key], outcome
                )
            emit(outcome)
            if outcome.key in part.duplicates:
                for duplicate in fanout_duplicates(part, outcome):
                    emit(duplicate)
    return outcomes


def memoized_outcomes(
    plan: ExecutionPlan,
    store: Any,
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    refresh: bool = False,
) -> List[RunOutcome]:
    """:func:`run_plan` on the default pool-or-serial executor."""
    return run_plan(
        plan,
        store,
        partial(local_executor, jobs),
        refresh=refresh,
        progress=progress,
    )
