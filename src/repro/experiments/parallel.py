"""Experiment plans: the data types, the default executor, the report.

Every experiment in this suite is an embarrassingly parallel grid — a
(seed x sweep-point x scheme) cross product of simulations that share no
state.  This module gives that structure a name:

* an experiment *declares* its grid as a list of :class:`RunSpec`\\ s —
  each a picklable, module-level worker function plus keyword arguments
  and a unique sortable ``key``;
* :func:`execute_plan` runs the specs and returns ``{key: value}``.
  There is one way a plan runs — the partition → execute → journal →
  merge loop in :mod:`repro.store.memo` — with the result store (or
  none) that :func:`run_outcomes` resolves, and one *executor* for the
  specs the store cannot answer: :func:`local_executor` (this process
  for ``jobs=1``, else the process's one kept ``multiprocessing``
  pool, each job carrying its spec and telemetry options);
* the experiment's *reduce* step folds the per-run values into table
  rows by looking results up **by key** in its own declared grid order —
  never by iterating the result mapping — so the output is identical no
  matter how workers were scheduled;
* :class:`TimingSummary` / :class:`StderrProgress` report where the
  wall time of an executed plan went.

Determinism contract: a run's value depends only on its spec (all
simulator randomness flows from the config seed), and reduction order is
fixed by the plan, so ``jobs=N`` is bit-identical to ``jobs=1``.
``tests/experiments/test_parallel.py`` enforces this.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs import runtime as obs_runtime
from repro.obs.runtime import ObsOptions

#: a spec's identity inside its plan: a tuple of primitives, unique and
#: sortable so outcomes can be ordered without reference to wall time
Key = Tuple[Hashable, ...]

#: called after each finished run with (outcome, done_count, total)
ProgressFn = Callable[["RunOutcome", int, int], None]


def default_jobs() -> int:
    """The default worker count: one per available CPU."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run of an experiment grid.

    ``fn`` must be a module-level function (so it pickles by reference)
    and ``kwargs`` must contain only picklable values; the spec may then
    execute in any worker process.

    ``result_version`` salts the spec's content address in the result
    store (see :mod:`repro.store.hashing`): bump it in the experiment
    when the *meaning* of ``fn``'s output changes without its signature
    changing, and previously journaled results stop matching.
    """

    key: Key
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    result_version: int = 1

    def execute(self) -> Any:
        """Run the spec in the current process."""
        return self.fn(**self.kwargs)


#: how a :class:`RunOutcome`'s value was obtained
SOURCE_EXECUTED = "executed"
SOURCE_HIT = "hit"
SOURCE_COALESCED = "coalesced"


@dataclass(frozen=True)
class RunOutcome:
    """A finished run: its key, its value, and how long it took.

    ``source`` records how the value was obtained: ``"executed"`` (the
    simulation ran), ``"hit"`` (answered from the result store), or
    ``"coalesced"`` (a duplicate spec fanned out from another spec's
    execution in the same plan).  ``saved_seconds`` is the execution
    time a hit or coalesced outcome avoided, as journaled/measured for
    the run that did execute.
    """

    key: Key
    value: Any
    wall_seconds: float
    source: str = SOURCE_EXECUTED
    saved_seconds: float = 0.0


@dataclass
class ExecutionPlan:
    """A named list of independent runs plus grid metadata for reduce."""

    name: str
    specs: List[RunSpec]
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            if spec.key in seen:
                raise ValueError(
                    f"plan {self.name!r}: duplicate run key {spec.key!r}"
                )
            seen.add(spec.key)

    def __len__(self) -> int:
        return len(self.specs)


def _execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec and time it (in a pool process, or right here)."""
    started = time.perf_counter()
    value = spec.execute()
    return RunOutcome(
        key=spec.key,
        value=value,
        wall_seconds=time.perf_counter() - started,
    )


def run_outcomes(
    plan: ExecutionPlan,
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    store: Optional[Any] = None,
) -> List[RunOutcome]:
    """Execute every spec in ``plan``; outcomes are in completion order.

    Every plan runs through the one loop in :mod:`repro.store.memo`
    (partition against the store, emit hits, then journal, emit and fan
    out each executed leader) on :func:`local_executor` with ``jobs``
    workers; this function only resolves the store: the ``store``
    argument, else the process-wide session of
    :mod:`repro.store.runtime` (``--store-dir``/``REPRO_STORE_DIR``),
    else none — every spec executes and nothing is journaled.  The
    returned values are bit-identical either way — the reduce step
    cannot tell a warm campaign from a cold one, or a pool from a loop.
    """
    from repro.store import runtime as store_runtime
    from repro.store.memo import memoized_outcomes

    session = store_runtime.active_session() if store is None else None
    refresh = False
    if session is not None:
        store, refresh = session.store, session.refresh
    return memoized_outcomes(
        plan, store, jobs=jobs, progress=progress, refresh=refresh
    )


def _plain_outcomes(
    plan: ExecutionPlan,
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> List[RunOutcome]:
    """The plan loop with no store, whatever is configured."""
    from repro.store.memo import memoized_outcomes

    return memoized_outcomes(plan, None, jobs=jobs, progress=progress)


def _execute_job(job: Tuple[RunSpec, Optional[ObsOptions]]) -> RunOutcome:
    """Run one spec in a pool worker under the telemetry options it
    was submitted with, then restore the worker's own."""
    spec, options = job
    previous = obs_runtime.configured()
    obs_runtime.configure(options)
    try:
        return _execute_spec(spec)
    finally:
        obs_runtime.configure(previous)


@contextmanager
def local_executor(
    jobs: Optional[int], leaders: Sequence[RunSpec]
) -> Iterator[Iterable[RunOutcome]]:
    """The default executor of the plan loop: a pool, or this process.

    ``jobs`` (``None`` uses :func:`default_jobs`) workers of the
    process's one kept pool (:mod:`repro.farm.transport`) yield outcomes
    as they complete; the pool is reused by every later plan of the
    same ``jobs``, and torn down if the plan loop raises before draining
    it (a spec, the journal or a progress callback raised, or an
    interrupt), so nothing of an abandoned plan runs on into the next.
    A worker sees this process's code and module state as of the pool's
    start plus its job — the spec and the telemetry options configured
    at submission.

    One worker, or one leader, needs no pool: the leaders run in order
    right here.  So do they in a sandbox where the pool cannot be
    *built* (no semaphores), which computes the same values.  Only
    construction falls back: an error raised by a running spec,
    ``OSError`` included, propagates, and a worker that dies raises
    :class:`~repro.farm.transport.WorkerLost` naming the unfinished
    specs.
    """
    from repro.farm.transport import (
        BackendUnavailable,
        _kept_pool,
        _retire_kept_pool,
        pool_results,
    )

    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    pool = None
    if jobs > 1 and len(leaders) > 1:
        try:
            pool = _kept_pool(jobs)
        except BackendUnavailable:
            pass
    if pool is None:
        yield map(_execute_spec, leaders)
        return
    options = obs_runtime.configured()
    try:
        yield pool_results(
            pool,
            pool.imap_unordered(
                _execute_job,
                [(spec, options) for spec in leaders],
                chunksize=1,
            ),
            [spec.key for spec in leaders],
            lambda outcome: outcome.key,
        )
    except BaseException:
        _retire_kept_pool()
        raise


def resolve(outcomes: List[RunOutcome]) -> Dict[Key, Any]:
    """Outcomes as a ``{key: value}`` mapping for order-free lookup."""
    return {outcome.key: outcome.value for outcome in outcomes}


def execute_plan(
    plan: ExecutionPlan,
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[Key, Any]:
    """Run the plan and return ``{key: value}`` for the reduce step."""
    return resolve(run_outcomes(plan, jobs=jobs, progress=progress))


@dataclass(frozen=True)
class TimingSummary:
    """Where the wall-time of one executed plan went.

    ``work_seconds`` is the sum of per-run wall times; with a pool the
    plan's own ``wall_seconds`` should be roughly ``work / jobs``, and
    ``utilisation`` (work / (wall x jobs)) says how close the pool got.
    Low utilisation usually means *stragglers*: runs much longer than
    the rest that leave workers idle at the tail of the plan.

    When a plan ran through the result store, ``hits``/``coalesced``
    say how many runs were answered without executing and
    ``saved_seconds`` how much execution time that avoided; the per-run
    timing statistics (mean/median/max/stragglers) are computed over
    the **executed** runs only, so a warm campaign full of instant hits
    does not collapse the median to zero and flag every real run as a
    straggler.
    """

    runs: int
    jobs: int
    work_seconds: float
    wall_seconds: float
    mean_seconds: float
    median_seconds: float
    max_seconds: float
    #: ``(label, seconds)`` of runs slower than 2x the median
    stragglers: Tuple[Tuple[str, float], ...]
    #: runs answered from the result store without executing
    hits: int = 0
    #: duplicate specs fanned out from another spec's execution
    coalesced: int = 0
    #: runs that actually executed (``runs`` counts all outcomes)
    executed: int = 0
    #: execution time avoided by hits and coalesced runs
    saved_seconds: float = 0.0

    @property
    def utilisation(self) -> float:
        """Fraction of pool capacity spent doing work (0..1)."""
        capacity = self.wall_seconds * self.jobs
        if capacity <= 0:
            return 0.0
        return min(1.0, self.work_seconds / capacity)

    def render(self) -> str:
        """A short multi-line report for ``--progress`` output."""
        lines = [
            f"{self.runs} run(s): {self.work_seconds:.2f}s work in "
            f"{self.wall_seconds:.2f}s wall on {self.jobs} job(s) "
            f"(pool utilisation {self.utilisation:.0%})",
            f"per-run wall: mean {self.mean_seconds:.2f}s, "
            f"median {self.median_seconds:.2f}s, "
            f"max {self.max_seconds:.2f}s",
        ]
        if self.hits or self.coalesced:
            lines.append(
                f"result store: {self.hits} hit(s), "
                f"{self.coalesced} coalesced, {self.executed} "
                f"executed; ~{self.saved_seconds:.2f}s of execution "
                "avoided"
            )
        if self.stragglers:
            worst = ", ".join(
                f"{label} ({seconds:.2f}s)"
                for label, seconds in self.stragglers
            )
            lines.append(f"stragglers (>2x median): {worst}")
        return "\n".join(lines)


def _key_label(key: Key) -> str:
    return "/".join(str(part) for part in key)


def summarize_timing(
    outcomes: List[RunOutcome], jobs: int, wall_seconds: float
) -> TimingSummary:
    """Fold per-run wall times into a :class:`TimingSummary`.

    Timing statistics cover executed outcomes only; store hits and
    coalesced duplicates are counted separately (see the class docs).
    """
    ran = [o for o in outcomes if o.source == SOURCE_EXECUTED]
    hits = sum(1 for o in outcomes if o.source == SOURCE_HIT)
    coalesced = sum(
        1 for o in outcomes if o.source == SOURCE_COALESCED
    )
    saved = sum(o.saved_seconds for o in outcomes)
    times = sorted(outcome.wall_seconds for outcome in ran)
    if not times:
        return TimingSummary(
            runs=len(outcomes), jobs=max(1, jobs), work_seconds=0.0,
            wall_seconds=wall_seconds, mean_seconds=0.0,
            median_seconds=0.0, max_seconds=0.0, stragglers=(),
            hits=hits, coalesced=coalesced, executed=0,
            saved_seconds=saved,
        )
    half = len(times) // 2
    median = (
        times[half]
        if len(times) % 2
        else (times[half - 1] + times[half]) / 2
    )
    threshold = 2 * median
    stragglers = tuple(
        sorted(
            (
                (_key_label(o.key), o.wall_seconds)
                for o in ran
                if o.wall_seconds > threshold
            ),
            key=lambda pair: -pair[1],
        )
    )
    return TimingSummary(
        runs=len(outcomes),
        jobs=max(1, jobs),
        work_seconds=sum(times),
        wall_seconds=wall_seconds,
        mean_seconds=sum(times) / len(times),
        median_seconds=median,
        max_seconds=times[-1],
        stragglers=stragglers,
        hits=hits,
        coalesced=coalesced,
        executed=len(times),
        saved_seconds=saved,
    )


class StderrProgress:
    """A progress printer for CLI use (stderr, one line per run).

    Instances are valid :data:`ProgressFn` callbacks that additionally
    accumulate every outcome, so after ``execute_plan`` returns the
    caller can ask for a :meth:`summary` of where the wall-time went.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.outcomes: List[RunOutcome] = []
        self._started = time.perf_counter()

    def __call__(self, outcome: RunOutcome, done: int, total: int) -> None:
        self.outcomes.append(outcome)
        if outcome.source == SOURCE_HIT:
            detail = f"store hit, ~{outcome.saved_seconds:.2f}s saved"
        elif outcome.source == SOURCE_COALESCED:
            detail = (
                f"coalesced, ~{outcome.saved_seconds:.2f}s saved"
            )
        else:
            detail = f"{outcome.wall_seconds:.2f}s"
        print(
            f"[{self.name} {done}/{total}] {_key_label(outcome.key)} "
            f"({detail})",
            file=sys.stderr,
            flush=True,
        )

    def summary(self, jobs: Optional[int] = None) -> TimingSummary:
        """Timing summary over everything reported so far."""
        return summarize_timing(
            self.outcomes,
            jobs=default_jobs() if jobs is None else max(1, int(jobs)),
            wall_seconds=time.perf_counter() - self._started,
        )
