"""Memoizing execution: hits, coalescing, refresh, uncacheable specs."""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from repro.experiments.parallel import (
    SOURCE_COALESCED,
    SOURCE_EXECUTED,
    SOURCE_HIT,
    ExecutionPlan,
    RunSpec,
    resolve,
    run_outcomes,
)
from repro.farm import (
    LocalPoolBackend,
    SerialBackend,
    SubprocessFleetBackend,
    run_campaign,
)
from repro.store.backend import MemoryStore
from repro.store.memo import memoized_outcomes, partition_plan

#: executions recorded by the module-level worker (jobs=1 is serial,
#: so the worker runs in-process and the list is visible to the test)
CALLS = []


def work(tag=0, factor=1, probe=None):
    CALLS.append(tag)
    return {"tag": tag, "scaled": tag * factor}


def opaque(tag=0):
    CALLS.append(tag)
    return object()  # not encodable: the value is execute-only


def missing_file(tag=0):
    raise FileNotFoundError(f"spec {tag} wants a file that is not there")


def _plan(name="grid", tags=(1, 2, 3), prefix="run"):
    specs = [
        RunSpec(key=(prefix, tag), fn=work, kwargs={"tag": tag})
        for tag in tags
    ]
    return ExecutionPlan(name, specs)


@pytest.fixture(autouse=True)
def _clear_calls():
    CALLS.clear()
    yield


class TestHits:
    def test_second_campaign_is_all_hits(self):
        store = MemoryStore()
        plan = _plan()
        cold = memoized_outcomes(plan, store, jobs=1)
        executed = list(CALLS)
        warm = memoized_outcomes(plan, store, jobs=1)
        assert executed == [1, 2, 3]
        assert list(CALLS) == executed  # nothing re-ran
        assert resolve(warm) == resolve(cold)
        assert all(o.source == SOURCE_HIT for o in warm)
        assert all(o.wall_seconds == 0.0 for o in warm)
        assert all(o.saved_seconds >= 0.0 for o in warm)

    def test_store_values_match_plain_execution(self):
        plan = _plan()
        plain = resolve(run_outcomes(plan, jobs=1))
        store = MemoryStore()
        assert resolve(memoized_outcomes(plan, store, jobs=1)) == plain
        assert resolve(memoized_outcomes(plan, store, jobs=1)) == plain

    def test_hits_cross_plan_and_grid_keys(self):
        store = MemoryStore()
        memoized_outcomes(_plan(prefix="first"), store, jobs=1)
        warm = memoized_outcomes(
            _plan(name="other", prefix="second"), store, jobs=1
        )
        assert all(o.source == SOURCE_HIT for o in warm)


class TestCoalescing:
    def _dup_plan(self):
        specs = [
            RunSpec(key=(prefix, tag), fn=work, kwargs={"tag": tag})
            for tag in (1, 2)
            for prefix in ("a", "b")
        ]
        return ExecutionPlan("dup", specs)

    def test_duplicates_execute_once_and_fan_out(self):
        store = MemoryStore()
        outcomes = memoized_outcomes(self._dup_plan(), store, jobs=1)
        assert sorted(CALLS) == [1, 2]  # one execution per unique spec
        by_source = {}
        for outcome in outcomes:
            by_source.setdefault(outcome.source, []).append(outcome)
        assert len(by_source[SOURCE_EXECUTED]) == 2
        assert len(by_source[SOURCE_COALESCED]) == 2
        plain = resolve(run_outcomes(self._dup_plan(), jobs=1))
        assert resolve(outcomes) == plain

    def test_partition_reports_the_split(self):
        store = MemoryStore()
        plan = self._dup_plan()
        part = partition_plan(plan, store)
        assert len(part.leaders) == 2
        assert part.coalesced_count == 2
        assert not part.hits
        memoized_outcomes(plan, store, jobs=1)
        warm = partition_plan(plan, store)
        assert len(warm.hits) == 4
        assert not warm.leaders


class TestRefresh:
    def test_refresh_reexecutes_but_still_coalesces(self):
        store = MemoryStore()
        plan = _plan(tags=(5,))
        memoized_outcomes(plan, store, jobs=1)
        assert CALLS == [5]
        dup = ExecutionPlan(
            "dup",
            [
                RunSpec(key=("a", 5), fn=work, kwargs={"tag": 5}),
                RunSpec(key=("b", 5), fn=work, kwargs={"tag": 5}),
            ],
        )
        outcomes = memoized_outcomes(dup, store, jobs=1, refresh=True)
        assert CALLS == [5, 5]  # re-ran once despite the journal
        sources = sorted(o.source for o in outcomes)
        assert sources == [SOURCE_COALESCED, SOURCE_EXECUTED]
        assert store.puts == 2  # the fresh result was re-journaled

    def test_result_version_bump_misses(self):
        store = MemoryStore()
        memoized_outcomes(_plan(tags=(9,)), store, jobs=1)
        bumped = ExecutionPlan(
            "v2",
            [
                RunSpec(
                    key=("run", 9),
                    fn=work,
                    kwargs={"tag": 9},
                    result_version=2,
                )
            ],
        )
        outcomes = memoized_outcomes(bumped, store, jobs=1)
        assert CALLS == [9, 9]
        assert outcomes[0].source == SOURCE_EXECUTED


class TestUncacheable:
    def test_unhashable_spec_always_executes(self):
        store = MemoryStore()
        plan = ExecutionPlan(
            "local",
            [
                RunSpec(
                    key=("run", 1),
                    fn=work,
                    kwargs={"tag": 1, "probe": lambda: 2},
                )
            ],
        )
        first = memoized_outcomes(plan, store, jobs=1)
        second = memoized_outcomes(plan, store, jobs=1)
        assert CALLS == [1, 1]
        assert store.puts == 0
        assert first[0].source == SOURCE_EXECUTED
        assert second[0].source == SOURCE_EXECUTED

    def test_unencodable_value_is_not_journaled(self):
        store = MemoryStore()
        plan = ExecutionPlan(
            "opaque",
            [RunSpec(key=("run", 1), fn=opaque, kwargs={"tag": 1})],
        )
        memoized_outcomes(plan, store, jobs=1)
        memoized_outcomes(plan, store, jobs=1)
        assert CALLS == [1, 1]
        assert store.puts == 0


class TestProgress:
    def test_done_total_spans_the_whole_plan(self):
        store = MemoryStore()
        plan = _plan(tags=(1, 2, 3, 4))
        memoized_outcomes(plan, store, jobs=1)
        seen = []

        def progress(outcome, done, total):
            seen.append((outcome.source, done, total))

        memoized_outcomes(plan, store, jobs=1, progress=progress)
        assert [(done, total) for _, done, total in seen] == [
            (1, 4), (2, 4), (3, 4), (4, 4)
        ]
        assert all(source == SOURCE_HIT for source, _, _ in seen)

    def test_mixed_plan_counts_every_source(self):
        store = MemoryStore()
        memoized_outcomes(_plan(tags=(1,)), store, jobs=1)
        mixed = ExecutionPlan(
            "mixed",
            [
                RunSpec(key=("hit", 1), fn=work, kwargs={"tag": 1}),
                RunSpec(key=("miss", 2), fn=work, kwargs={"tag": 2}),
                RunSpec(key=("dup", 2), fn=work, kwargs={"tag": 2}),
            ],
        )
        seen = []

        def progress(outcome, done, total):
            seen.append((outcome.source, done, total))

        memoized_outcomes(mixed, store, jobs=1, progress=progress)
        assert [done for _, done, _ in seen] == [1, 2, 3]
        assert {total for _, _, total in seen} == {3}
        assert [source for source, _, _ in seen] == [
            SOURCE_HIT, SOURCE_EXECUTED, SOURCE_COALESCED
        ]


def _campaign(backend, plan, store, progress=None, refresh=False):
    """The farm's executor over a fresh ``backend``, two shards."""
    return run_campaign(
        plan, backend(), 2, store=store, refresh=refresh, progress=progress
    ).outcomes


#: every way into the plan loop, as ``run(plan, store, progress=,
#: refresh=)``: the default executor serial and pooled, and the farm's
#: executor over each backend
EXECUTORS = {
    "jobs=1": partial(memoized_outcomes, jobs=1),
    "jobs=2": partial(memoized_outcomes, jobs=2),
    "farm-serial": partial(_campaign, SerialBackend),
    "farm-local": partial(_campaign, LocalPoolBackend),
    "farm-fleet": partial(_campaign, SubprocessFleetBackend),
}


class TestOneLoop:
    """Every executor x every store state: same values, same sources."""

    #: two duplicated specs, one unique, one uncacheable (a complex
    #: kwarg pickles but has no canonical form)
    CACHEABLE_LEADERS = 3

    def _mixed_plan(self):
        specs = [
            RunSpec(key=(prefix, tag), fn=work, kwargs={"tag": tag})
            for tag in (1, 2)
            for prefix in ("a", "b")
        ]
        specs.append(RunSpec(key=("solo", 3), fn=work, kwargs={"tag": 3}))
        specs.append(
            RunSpec(
                key=("unhashable", 4),
                fn=work,
                kwargs={"tag": 4, "probe": 1j},
            )
        )
        return ExecutionPlan("mixed", specs)

    VALUES = {
        (prefix, tag): {"tag": tag, "scaled": tag}
        for prefix, tag in (
            ("a", 1), ("b", 1), ("a", 2), ("b", 2),
            ("solo", 3), ("unhashable", 4),
        )
    }
    COLD_SOURCES = Counter(
        {
            (("a", 1), SOURCE_EXECUTED): 1,
            (("b", 1), SOURCE_COALESCED): 1,
            (("a", 2), SOURCE_EXECUTED): 1,
            (("b", 2), SOURCE_COALESCED): 1,
            (("solo", 3), SOURCE_EXECUTED): 1,
            (("unhashable", 4), SOURCE_EXECUTED): 1,
        }
    )

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("state", ["none", "cold", "warm", "refresh"])
    def test_same_outcomes_whoever_executes(self, executor, state):
        plan = self._mixed_plan()
        store = None if state == "none" else MemoryStore()
        if state in ("warm", "refresh"):
            memoized_outcomes(plan, store, jobs=1)
            assert store.puts == self.CACHEABLE_LEADERS
            store.puts = 0
        done = []

        def progress(outcome, count, total):
            done.append((count, total))

        outcomes = EXECUTORS[executor](
            plan, store, progress=progress, refresh=state == "refresh"
        )

        assert resolve(outcomes) == self.VALUES
        sources = Counter((o.key, o.source) for o in outcomes)
        if state == "none":
            assert sources == Counter(
                (key, SOURCE_EXECUTED) for key in self.VALUES
            )
        elif state == "warm":
            assert sources == Counter(
                (
                    key,
                    SOURCE_EXECUTED
                    if key == ("unhashable", 4)
                    else SOURCE_HIT,
                )
                for key in self.VALUES
            )
            assert store.puts == 0
        else:
            assert sources == self.COLD_SOURCES
            assert store.puts == self.CACHEABLE_LEADERS
        assert done == [(count, 6) for count in range(1, 7)]


class TestSpecErrors:
    def test_a_specs_own_oserror_does_not_rerun_the_plan(self):
        """The pool-to-serial fallback covers building the pool, not
        running it: an ``OSError`` raised *by a spec* used to restart
        the whole plan serially before surfacing."""
        specs = [
            RunSpec(key=("ok", tag), fn=work, kwargs={"tag": tag})
            for tag in range(5)
        ]
        specs.append(
            RunSpec(key=("bad", 5), fn=missing_file, kwargs={"tag": 5})
        )
        store = MemoryStore()
        seen = []

        def progress(outcome, done, total):
            seen.append((outcome.key, done))

        with pytest.raises(FileNotFoundError, match="spec 5"):
            memoized_outcomes(
                ExecutionPlan("oserror", specs),
                store,
                jobs=2,
                progress=progress,
            )
        keys = [key for key, _ in seen]
        assert len(set(keys)) == len(keys) <= 5  # each emitted once
        assert [done for _, done in seen] == list(
            range(1, len(seen) + 1)
        )
        assert store.puts == len(seen)  # one put per leader
