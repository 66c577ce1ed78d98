"""The process-wide farm session.

Mirrors :mod:`repro.store.runtime`: CLI entry points call
:func:`configure` once (from ``--farm``/``--shards`` flags) inside a
``try``/``finally`` that ends with :func:`reset`, and
:func:`repro.experiments.parallel.run_outcomes` consults
:func:`active_farm` to choose who executes a plan's leaders.
Experiments themselves never know whether their plans ran on a pool, a
fleet, or serially — ``run_outcomes`` resolves the result store the
same way for all three, so flipping ``--farm`` on changes scheduling
and nothing else.

Backend resolution degrades the way the execution engine always has:
``local`` falls back to serial where multiprocessing pools cannot
exist, ``fleet`` falls back to serial where subprocesses cannot spawn.
The fallback is safe because a backend raises
:class:`~repro.farm.transport.BackendUnavailable` from ``start``,
before the campaign emits a single outcome or touches the journal.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.experiments.parallel import (
    ExecutionPlan,
    ProgressFn,
    RunOutcome,
    default_jobs,
)
from repro.farm.backends import (
    LocalPoolBackend,
    SerialBackend,
    SubprocessFleetBackend,
    WorkerBackend,
)
from repro.farm.campaign import CampaignResult, run_campaign
from repro.farm.scheduler import StealPolicy
from repro.farm.transport import BackendUnavailable

#: backend kinds a session can be configured with (CLI ``--farm``)
FARM_KINDS = ("local", "fleet", "serial")


def _backend_candidates(kind: str) -> List[Callable[[], WorkerBackend]]:
    """Constructors to try for ``kind``, preferred first."""
    if kind == "fleet":
        return [SubprocessFleetBackend, SerialBackend]
    if kind == "local":
        return [LocalPoolBackend, SerialBackend]
    if kind == "serial":
        return [SerialBackend]
    raise ValueError(
        f"unknown farm backend {kind!r}; pick from {FARM_KINDS}"
    )


class FarmSession:
    """One configured farm: backend kind, shard count, steal policy.

    The session keeps the last
    :class:`~repro.farm.campaign.CampaignResult`, so entry points can
    render per-worker timing and write the merged campaign manifest
    without threading the result through every experiment.
    """

    def __init__(
        self,
        kind: str = "local",
        shards: Optional[int] = None,
        steal_policy: Optional[StealPolicy] = None,
        backend_factory: Optional[
            Callable[[], WorkerBackend]
        ] = None,
    ) -> None:
        if backend_factory is None:
            _backend_candidates(kind)  # validate the kind eagerly
        self.kind = kind
        self.shards = shards
        self.steal_policy = steal_policy
        self.backend_factory = backend_factory
        self.last_result: Optional[CampaignResult] = None

    def run(
        self,
        plan: ExecutionPlan,
        store: Optional[object] = None,
        jobs: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        refresh: bool = False,
    ) -> List[RunOutcome]:
        """Execute ``plan`` as a campaign; ``memoized_outcomes``'s
        signature and contract, so ``run_outcomes`` calls either.

        Without a configured shard count the campaign gets ``jobs``
        shards (``None`` uses :func:`default_jobs`), never more than
        the plan has specs — ``--farm X --jobs N`` means N lanes.
        """
        shards = self.shards or jobs or default_jobs()
        shards = max(1, min(shards, len(plan.specs)))
        candidates = (
            [self.backend_factory]
            if self.backend_factory is not None
            else _backend_candidates(self.kind)
        )
        result: Optional[CampaignResult] = None
        for index, factory in enumerate(candidates):
            try:
                result = run_campaign(
                    plan,
                    factory(),
                    shards,
                    store=store,
                    refresh=refresh,
                    progress=progress,
                    steal_policy=self.steal_policy,
                )
                break
            except BackendUnavailable:
                if index == len(candidates) - 1:
                    raise
        assert result is not None
        self.last_result = result
        return result.outcomes


_active: Optional[FarmSession] = None


def configure(session: Optional[FarmSession]) -> None:
    """Install (or, with ``None``, clear) the process-wide session."""
    global _active
    _active = session


def active_farm() -> Optional[FarmSession]:
    """The active session, or ``None`` when the farm is off."""
    return _active


def reset() -> None:
    """Clear the session (CLI teardown and tests).

    Backends are per-campaign, created and closed inside
    :meth:`FarmSession.run`, so unlike the store runtime there is
    nothing to close here.
    """
    global _active
    _active = None


def open_farm(
    kind: str,
    shards: Optional[int] = None,
    steal_policy: Optional[StealPolicy] = None,
) -> FarmSession:
    """A session for ``kind`` (one of :data:`FARM_KINDS`)."""
    return FarmSession(kind=kind, shards=shards, steal_policy=steal_policy)
