"""The three campaign workloads: many specs, two workers, a store.

``campaign-quick`` runs real experiments the way the runner does;
``store-5k`` and ``dispatch-noop`` replace the simulation by the no-op
worker so that only the store, or only the transports, carry the wall.
All load is closed-loop from this one process; parallel paths use
exactly ``JOBS`` workers.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.ablations import (
    plan_encoding_ablation,
    plan_replication_ablation,
    plan_routing_mode_ablation,
    reduce_encoding_ablation,
    reduce_replication_ablation,
    reduce_routing_mode_ablation,
)
from repro.experiments.common import QUICK, simulate_summary
from repro.experiments.cross_topology import (
    plan_cross_topology,
    reduce_cross_topology,
)
from repro.experiments.extensions import (
    plan_barrier_scaling,
    reduce_barrier_scaling,
)
from repro.experiments.length_sweep import (
    plan_length_sweep,
    reduce_length_sweep,
)
from repro.experiments.parallel import (
    ExecutionPlan,
    RunOutcome,
    RunSpec,
    _plain_outcomes,
    execute_plan,
    resolve,
)
from repro.experiments.parameters import plan_parameters, reduce_parameters
from repro.experiments.runner import EXPERIMENTS
from repro.farm import (
    LocalPoolBackend,
    SerialBackend,
    SubprocessFleetBackend,
    run_campaign,
)
from repro.store import JournalStore, memoized_outcomes
from repro.store import runtime as store_runtime

from common import GOLDEN_DIR, OUT_DIR, SpanLog, percentile
from workers import noop_summary

#: worker count of every parallel path (the sandbox has two CPUs)
JOBS = 2

#: quick-scale experiments of ``campaign-quick``: 123 specs of about
#: 13 ms each.  The other nine are left out only for their length (each
#: is 0.5 s or more on two workers) — a repeat has to stay near 1.5 s
#: for a ten-second run to hold enough of them for a median.
QUICK_EXPERIMENTS: Dict[str, Tuple[Callable[..., Any], Callable[..., Any]]] = {
    "a2": (plan_routing_mode_ablation, reduce_routing_mode_ablation),
    "a3": (plan_encoding_ablation, reduce_encoding_ablation),
    "a4": (plan_replication_ablation, reduce_replication_ablation),
    "e3": (plan_length_sweep, reduce_length_sweep),
    "e7": (plan_parameters, reduce_parameters),
    "x1": (plan_barrier_scaling, reduce_barrier_scaling),
    "x4": (plan_cross_topology, reduce_cross_topology),
}

STORE_SPECS = 5_000
DISPATCH_SPECS = 400


def _scratch_dir() -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)


def _canonical(rows: Any) -> Any:
    """Rows as the golden files store them."""
    return json.loads(json.dumps(rows))


def noop_plan(seed: int, count: int) -> ExecutionPlan:
    return ExecutionPlan(
        "noop",
        [
            RunSpec(
                key=(index,),
                fn=noop_summary,
                kwargs={"seed": seed, "index": index},
            )
            for index in range(count)
        ],
    )


class _Tally:
    """Progress callback: counts sources, keeps per-spec wall times, and
    records one span per spec (start = completion - worker wall)."""

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.sources: Dict[str, int] = {}
        self.walls: List[float] = []

    def __call__(self, outcome: RunOutcome, done: int, total: int) -> None:
        self.sources[outcome.source] = self.sources.get(outcome.source, 0) + 1
        if outcome.source == "executed":
            self.walls.append(outcome.wall_seconds)
            now = perf_counter()
            self.spans.add("spec", now - outcome.wall_seconds, now)

    @property
    def seen(self) -> int:
        return sum(self.sources.values())


def _timed_method(target: Any, name: str, acc: List[float]) -> None:
    """Rebind ``target.name`` on the instance to sum its busy time and
    calls into ``acc`` (the pattern ``SimProbe`` uses on links)."""
    method = getattr(target, name)

    def wrapper(*args: Any) -> Any:
        began = perf_counter()
        try:
            return method(*args)
        finally:
            acc[0] += perf_counter() - began
            acc[1] += 1

    setattr(target, name, wrapper)


# ----------------------------------------------------------------------
# campaign-quick
# ----------------------------------------------------------------------
def campaign_order(seed: int, shrink: float) -> List[str]:
    """The seed fixes the order experiments run in; their grids (and so
    the golden rows) are the paper's and do not depend on it."""
    order = sorted(QUICK_EXPERIMENTS)
    random.Random(seed).shuffle(order)
    return order[: max(1, round(len(order) * shrink))]


def campaign_quick(seed: int, shrink: float, spans: SpanLog) -> Dict[str, Any]:
    order = campaign_order(seed, shrink)
    began = perf_counter()
    with spans.span("setup"):
        directory = _scratch_dir()
        plans = {name: QUICK_EXPERIMENTS[name][0](QUICK) for name in order}
        session = store_runtime.open_session(directory)
        store_runtime.configure(session)
    setup_s = perf_counter() - began
    puts, gets = [0.0, 0], [0.0, 0]
    if spans.enabled:
        _timed_method(session.store, "put", puts)
        _timed_method(session.store, "get", gets)
    specs = sum(len(plan) for plan in plans.values())
    tally = _Tally(spans)
    rows: Dict[str, Any] = {}
    try:
        timed = perf_counter()
        with spans.span("timed"):
            if spans.enabled:
                # plan, execute and reduce called apart: a span for each
                for name in order:
                    plan_fn, reduce_fn = QUICK_EXPERIMENTS[name]
                    with spans.span(name):
                        with spans.span("plan"):
                            plan = plan_fn(QUICK)
                        with spans.span("execute"):
                            results = execute_plan(
                                plan, jobs=JOBS, progress=tally
                            )
                        with spans.span("reduce"):
                            rows[name] = reduce_fn(plan, results).rows
            else:
                for name in order:
                    rows[name] = EXPERIMENTS[name](
                        QUICK, jobs=JOBS, progress=tally
                    ).rows
            with spans.span("store-close"):
                store_runtime.reset()
        wall_s = perf_counter() - timed

        # warm re-run against the campaign's own journal (untimed)
        warm = _Tally(SpanLog(False))
        store_runtime.configure(store_runtime.open_session(directory))
        warming = perf_counter()
        warm_rows = {
            name: EXPERIMENTS[name](QUICK, jobs=JOBS, progress=warm).rows
            for name in order
        }
        warm_s = perf_counter() - warming
        store_runtime.reset()
        with JournalStore(directory, create=False) as journal:
            verified = journal.verify().ok
    finally:
        store_runtime.reset()
        shutil.rmtree(directory, ignore_errors=True)

    failures: List[str] = []
    if tally.seen != specs:
        failures.append(f"{specs - tally.seen} spec(s) never reported")
    for name in order:
        golden = json.loads(
            (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        )
        if _canonical(rows[name]) != golden:
            failures.append(f"{name}: rows differ from the golden file")
    if warm_rows != rows:
        failures.append("warm re-run rows differ from the cold run")
    if warm.sources.get("hit", 0) != specs:
        failures.append("warm re-run was not answered from the store")
    if not verified:
        failures.append("journal verify failed")

    sample: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": specs,
        # every spec, every experiment's rows, the warm re-run, verify
        "attempted": specs + len(order) + 2,
        "failures": failures,
    }
    if spans.enabled:
        selfs = spans.self_times(spans.run)
        spec_wall = sum(tally.walls)
        sample["spec_walls"] = tally.walls
        sample["layers"] = {
            "plan.build_s": selfs["plan"],
            "plan.reduce_s": selfs["reduce"],
            "plan.specs": specs,
            "network.builds": sum(
                spec.fn is simulate_summary
                for plan in plans.values()
                for spec in plan.specs
            ),
            "exec.sum_spec_wall_s": spec_wall,
            "exec.overhead_frac": 1.0 - spec_wall / (JOBS * wall_s),
            "store.hits": tally.sources.get("hit", 0),
            "store.misses": tally.sources.get("executed", 0),
            "store.coalesced": tally.sources.get("coalesced", 0),
            "store.append_us_per_entry": puts[0] / max(1, puts[1]) * 1e6,
            "store.get_us_per_key": gets[0] / max(1, gets[1]) * 1e6,
            "store.campaign_warm_s": warm_s,
            "store.verify_ok": float(verified),
        }
    return sample


def spec_wall_stats(walls: List[float]) -> Dict[str, float]:
    """Percentiles over every spec of every traced repeat."""
    if not walls:
        return {}
    return {
        "exec.spec_wall_p50_ms": percentile(walls, 0.5) * 1e3,
        "exec.spec_wall_p90_ms": percentile(walls, 0.9) * 1e3,
    }


# ----------------------------------------------------------------------
# store-5k
# ----------------------------------------------------------------------
def store_5k(seed: int, shrink: float, spans: SpanLog) -> Dict[str, Any]:
    count = max(50, int(STORE_SPECS * shrink))
    began = perf_counter()
    with spans.span("setup"):
        directory = _scratch_dir()
        plan = noop_plan(seed, count)
    setup_s = perf_counter() - began
    puts, gets = [0.0, 0], [0.0, 0]
    try:
        timed = perf_counter()
        with spans.span("timed"):
            with spans.span("open"):
                store = JournalStore(directory)
            if spans.enabled:
                _timed_method(store, "put", puts)
            with spans.span("write"):
                written = memoized_outcomes(plan, store, jobs=1)
            with spans.span("close"):
                store.close()
            with spans.span("reopen"):
                store = JournalStore(directory, create=False)
            if spans.enabled:
                _timed_method(store, "get", gets)
            with spans.span("read"):
                read = memoized_outcomes(plan, store, jobs=1)
            with spans.span("close"):
                store.close()
        wall_s = perf_counter() - timed
        journal_bytes = store.stats()["bytes"]
        verified = spans.enabled and store.verify().ok
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    values = resolve(read)
    wrong = sum(
        outcome.source != "hit"
        or values[outcome.key] != noop_summary(seed, outcome.key[0])
        for outcome in read
    ) + (count - len(read))
    sample: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": 2 * count,  # every spec written once and read once
        "attempted": count,
        "failed": wrong,
        "failures": (
            [f"{wrong} hit(s) differ from the value written"] if wrong else []
        ),
    }
    if spans.enabled:
        selfs = spans.self_times(spans.run)
        sample["layers"] = {
            "plan.build_s": setup_s,
            "plan.specs": count,
            "store.hits": sum(o.source == "hit" for o in read),
            "store.misses": sum(o.source == "executed" for o in written),
            "store.coalesced": sum(
                o.source == "coalesced" for o in written
            ),
            "store.append_us_per_entry": puts[0] / max(1, puts[1]) * 1e6,
            "store.get_us_per_key": gets[0] / max(1, gets[1]) * 1e6,
            "store.reopen_ms_per_10k": selfs["reopen"] / count * 1e7,
            "store.bytes_per_entry": journal_bytes / count,
            "store.verify_ok": float(verified),
        }
    return sample


# ----------------------------------------------------------------------
# dispatch-noop
# ----------------------------------------------------------------------
def dispatch_noop(seed: int, shrink: float, spans: SpanLog) -> Dict[str, Any]:
    count = max(20, int(DISPATCH_SPECS * shrink))
    began = perf_counter()
    with spans.span("setup"):
        plan = noop_plan(seed, count)
        planned = perf_counter()
        serial = resolve(_plain_outcomes(plan, jobs=1))
    ended = perf_counter()
    setup_s, serial_s = ended - began, ended - planned

    first_result: List[float] = []

    def note_first(outcome: RunOutcome, done: int, total: int) -> None:
        if not first_result:
            first_result.append(perf_counter())

    timed = perf_counter()
    with spans.span("timed"):
        with spans.span("pool"):
            pooled = _plain_outcomes(plan, jobs=JOBS)
        with spans.span("local"):
            local = run_campaign(plan, LocalPoolBackend(), JOBS)
        fleet_began = perf_counter()
        with spans.span("fleet"):
            fleeted = run_campaign(
                plan, SubprocessFleetBackend(), JOBS, progress=note_first
            )
    wall_s = perf_counter() - timed

    campaigns = (local, fleeted)
    resolved = {
        "pool": resolve(pooled),
        "local": resolve(local.outcomes),
        "fleet": resolve(fleeted.outcomes),
    }
    failures: List[str] = []
    failed = 0
    for name, mapping in resolved.items():
        wrong = sum(mapping.get(key) != value for key, value in serial.items())
        if wrong:
            failed += wrong
            failures.append(f"{name}: {wrong} value(s) differ from serial")
    worker_failures = sum(
        bool(report.failure)
        for result in campaigns
        for report in result.workers
    )
    if worker_failures:
        failed += worker_failures
        failures.append(f"{worker_failures} worker failure(s)")

    sample: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": len(resolved) * count,
        "attempted": len(resolved) * count,
        "failed": failed,
        "failures": failures,
    }
    if spans.enabled:
        selfs = spans.self_times(spans.run)
        farm_serial = perf_counter()
        run_campaign(plan, SerialBackend(), 1)
        farm_serial_s = perf_counter() - farm_serial
        sample["layers"] = {
            "plan.build_s": planned - began,
            "plan.specs": count,
            "exec.serial_us_per_spec": serial_s / count * 1e6,
            "exec.pool_us_per_spec": selfs["pool"] / count * 1e6,
            "farm.serial_us_per_spec": farm_serial_s / count * 1e6,
            "farm.local_us_per_spec": selfs["local"] / count * 1e6,
            "farm.fleet_us_per_spec": selfs["fleet"] / count * 1e6,
            # backend start, worker boot and the first job's round trip
            "farm.fleet_start_s": first_result[0] - fleet_began,
            "farm.steals": sum(r.steals for r in campaigns),
            "farm.requeues": sum(r.requeues for r in campaigns),
            "farm.worker_failures": worker_failures,
        }
    return sample


CAMPAIGN_LOADS: Dict[str, Callable[[int, float, SpanLog], Dict[str, Any]]] = {
    "campaign-quick": campaign_quick,
    "store-5k": store_5k,
    "dispatch-noop": dispatch_noop,
}
