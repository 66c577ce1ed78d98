"""The run farm: sharded, resumable campaign execution, as a library.

A *campaign* is one :class:`~repro.experiments.parallel.ExecutionPlan`
executed across a fleet of workers instead of a flat multiprocessing
pool.  No experiment and no CLI runs on it (experiments run on
:func:`~repro.experiments.parallel.local_executor`); the performance
ledger's ``dispatch-noop`` workload times it.  The farm layers four
ideas on top of location-independent ``RunSpec`` grids and the
content-addressed result store:

*pluggable backends* (:mod:`repro.farm.backends`)
    ``SerialBackend`` (in-process, the always-available reference),
    ``LocalPoolBackend`` (today's multiprocessing path) and
    ``SubprocessFleetBackend`` (N independent worker processes speaking
    a newline-framed JSON job protocol over pipes — the stand-in for a
    future SSH fleet) all satisfy one tiny dispatch/collect interface;
*sharding with work stealing* (:mod:`repro.farm.scheduler`)
    specs are dealt round-robin into per-worker shards in declared grid
    order; a worker that drains its own shard steals from the tail of
    the fullest remaining shard, so stragglers never leave the rest of
    the fleet idle;
*resumable campaigns* (:mod:`repro.farm.campaign`)
    completed specs are journaled through the result store keyed by
    spec fingerprint the moment they finish, so a killed campaign —
    parent or worker, even mid-journal-append — restarts warm and only
    executes the remainder;
*fault tolerance*
    a worker that dies (SIGKILL), goes silent (EOF) or corrupts a
    protocol frame is declared dead; its in-flight spec is requeued to
    the surviving workers and the campaign completes with the identical
    merged table.

The invariant that makes all of this safe is inherited from the
execution engine: reduction folds outcomes **by key in declared grid
order**, never in completion order, so any backend x any shard count x
any steal schedule is bit-identical to serial execution.
``tests/farm/`` proves it by hypothesis property (random plans, shard
counts, adversarial steal schedules) and under fault injection.  See
``docs/run-farm.md`` for what only the farm survives.
"""

from repro.farm.backends import (
    CompletedJob,
    LocalPoolBackend,
    SerialBackend,
    SubprocessFleetBackend,
    WorkerBackend,
    WorkerFailure,
)
from repro.farm.campaign import (
    CampaignResult,
    FarmError,
    FarmWorkerError,
    run_campaign,
)
from repro.farm.scheduler import ShardScheduler, shard_specs

__all__ = [
    "CampaignResult",
    "CompletedJob",
    "FarmError",
    "FarmWorkerError",
    "LocalPoolBackend",
    "SerialBackend",
    "ShardScheduler",
    "SubprocessFleetBackend",
    "WorkerBackend",
    "WorkerFailure",
    "run_campaign",
    "shard_specs",
]
