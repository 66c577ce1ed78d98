"""Parallel-equals-serial: the acceptance gate for the execution engine.

The determinism guarantee of docs/testing.md §5 (same config + seed →
bit-identical replay) is extended here to worker scheduling: running an
experiment grid on a multiprocessing pool must produce *exactly* the
rows and rendered table of the serial path.  Three layers enforce it:

* unit tests of the plan/execute machinery itself;
* end-to-end equivalence runs (``jobs=1`` vs ``jobs=4``) for several
  experiments spanning the shared worker, the custom barrier worker, and
  the occupancy-probe worker;
* a hypothesis property: reduction is order-independent by construction,
  so feeding outcomes to reduce in any shuffled order yields the same
  result.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import Scale, Scheme
from repro.experiments.cross_topology import (
    plan_cross_topology,
    reduce_cross_topology,
    run_cross_topology,
)
from repro.experiments.degree_sweep import run_degree_sweep
from repro.experiments.extensions import run_barrier_scaling
from repro.experiments.multiple_multicast import run_multiple_multicast
from repro.experiments.parallel import (
    ExecutionPlan,
    RunOutcome,
    RunSpec,
    StderrProgress,
    default_jobs,
    execute_plan,
    resolve,
    run_outcomes,
    stderr_progress,
    summarize_timing,
)

#: QUICK-shaped but smaller, so equivalence runs stay test-suite friendly
SMALL = Scale(
    name="small",
    repeats=2,
    warmup_cycles=100,
    measure_cycles=600,
    max_cycles=60_000,
)


def _double(x):
    return 2 * x


def _boom():
    raise RuntimeError("worker exploded")


class TestPlanMachinery:
    def test_runspec_executes_in_process(self):
        spec = RunSpec(key=(1,), fn=_double, kwargs={"x": 21})
        assert spec.execute() == 42

    def test_duplicate_keys_rejected(self):
        specs = [
            RunSpec(key=(1,), fn=_double, kwargs={"x": 1}),
            RunSpec(key=(1,), fn=_double, kwargs={"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate run key"):
            ExecutionPlan("dup", specs)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_serial_and_pool_agree(self):
        plan = ExecutionPlan(
            "squares",
            [
                RunSpec(key=(i,), fn=_double, kwargs={"x": i})
                for i in range(10)
            ],
        )
        serial = execute_plan(plan, jobs=1)
        pooled = execute_plan(plan, jobs=4)
        assert serial == pooled == {(i,): 2 * i for i in range(10)}

    def test_outcomes_carry_timing_and_keys(self):
        plan = ExecutionPlan(
            "timed",
            [RunSpec(key=(i,), fn=_double, kwargs={"x": i}) for i in range(3)],
        )
        outcomes = run_outcomes(plan, jobs=1)
        assert [outcome.key for outcome in outcomes] == [(0,), (1,), (2,)]
        assert all(outcome.wall_seconds >= 0 for outcome in outcomes)
        assert resolve(outcomes) == {(i,): 2 * i for i in range(3)}

    def test_progress_called_per_run(self):
        seen = []
        plan = ExecutionPlan(
            "prog",
            [RunSpec(key=(i,), fn=_double, kwargs={"x": i}) for i in range(4)],
        )
        execute_plan(
            plan,
            jobs=1,
            progress=lambda outcome, done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_stderr_progress_prints(self, capsys):
        plan = ExecutionPlan(
            "cli", [RunSpec(key=("a", 1), fn=_double, kwargs={"x": 1})]
        )
        execute_plan(plan, jobs=1, progress=stderr_progress("cli"))
        err = capsys.readouterr().err
        assert "[cli 1/1] a/1" in err

    def test_worker_error_propagates(self):
        plan = ExecutionPlan("boom", [RunSpec(key=(0,), fn=_boom)])
        with pytest.raises(RuntimeError, match="worker exploded"):
            execute_plan(plan, jobs=1)
        with pytest.raises(RuntimeError, match="worker exploded"):
            execute_plan(
                plan.__class__(
                    "boom2",
                    [RunSpec(key=(i,), fn=_boom if i else _double,
                             kwargs={} if i else {"x": 1})
                     for i in range(2)],
                ),
                jobs=2,
            )


def assert_equivalent(serial, pooled):
    """Rows and rendered tables must match exactly, not approximately."""
    assert serial.rows == pooled.rows
    assert serial.render() == pooled.render()


class TestParallelEqualsSerial:
    """jobs=1 and jobs=4 must be bit-identical (docs/testing.md §5)."""

    def test_e1_multiple_multicast(self):
        kwargs = dict(
            scale=SMALL, num_hosts=16, concurrency=(1, 4), degree=3,
            payload_flits=16,
        )
        assert_equivalent(
            run_multiple_multicast(jobs=1, **kwargs),
            run_multiple_multicast(jobs=4, **kwargs),
        )

    def test_e2_degree_sweep(self):
        kwargs = dict(
            scale=SMALL, num_hosts=16, degrees=(2, 6), payload_flits=16,
        )
        assert_equivalent(
            run_degree_sweep(jobs=1, **kwargs),
            run_degree_sweep(jobs=4, **kwargs),
        )

    def test_x1_barrier_custom_worker(self):
        kwargs = dict(scale=SMALL, sizes=(16,))
        assert_equivalent(
            run_barrier_scaling(jobs=1, **kwargs),
            run_barrier_scaling(jobs=4, **kwargs),
        )

    def test_x4_cross_topology(self):
        kwargs = dict(scale=SMALL, num_hosts=16, degrees=(4,))
        assert_equivalent(
            run_cross_topology(jobs=1, **kwargs),
            run_cross_topology(jobs=4, **kwargs),
        )


class TestOrderIndependentReduction:
    """Reduce folds by key lookup, so outcome order cannot matter."""

    @classmethod
    def setup_class(cls):
        cls.plan = run_multiple_multicast.plan(
            scale=SMALL, num_hosts=16, concurrency=(1, 2), degree=3,
            payload_flits=16, schemes=[Scheme.CB_HW, Scheme.SW],
        )
        cls.outcomes = run_outcomes(cls.plan, jobs=1)
        cls.baseline = run_multiple_multicast.reduce(
            cls.plan,
            dict(
                sorted(
                    resolve(cls.outcomes).items(),
                    key=lambda kv: repr(kv[0]),
                )
            ),
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_shuffled_subset_reduces_identically(self, data):
        """Any permutation — and any superset ordering — of the outcomes
        reduces to the same rows and table as the sorted order."""
        shuffled = data.draw(st.permutations(self.outcomes))
        result = run_multiple_multicast.reduce(self.plan, resolve(shuffled))
        assert result.rows == self.baseline.rows
        assert result.render() == self.baseline.render()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_subset_plan_matches_full_grid_values(self, data):
        """Executing any subset of the grid yields the same per-run
        values the full grid produced — runs are truly independent."""
        subset = data.draw(
            st.lists(
                st.sampled_from(self.plan.specs),
                min_size=1,
                max_size=4,
                unique_by=lambda spec: spec.key,
            )
        )
        sub_plan = ExecutionPlan("subset", list(subset))
        sub_results = execute_plan(sub_plan, jobs=1)
        full = resolve(self.outcomes)
        for key, value in sub_results.items():
            assert value.op_last_latency == full[key].op_last_latency


def _outcome(label, seconds):
    return RunOutcome(key=(label,), value=None, wall_seconds=seconds)


class TestTimingSummary:
    def test_empty_outcomes(self):
        summary = summarize_timing([], jobs=4, wall_seconds=1.0)
        assert summary.runs == 0
        assert summary.utilisation == 0.0
        assert summary.stragglers == ()
        assert "0 run(s)" in summary.render()

    def test_medians_even_and_odd(self):
        odd = summarize_timing(
            [_outcome(c, t) for c, t in zip("abc", (1.0, 3.0, 2.0))],
            jobs=1, wall_seconds=6.0,
        )
        assert odd.median_seconds == 2.0
        even = summarize_timing(
            [_outcome(c, t) for c, t in zip("abcd", (1.0, 2.0, 3.0, 4.0))],
            jobs=1, wall_seconds=10.0,
        )
        assert even.median_seconds == 2.5
        assert even.max_seconds == 4.0
        assert even.mean_seconds == 2.5

    def test_stragglers_exceed_twice_median_sorted_desc(self):
        summary = summarize_timing(
            [
                _outcome("fast1", 1.0),
                _outcome("fast2", 1.0),
                _outcome("slow", 5.0),
                _outcome("slower", 9.0),
                _outcome("ok", 1.5),
            ],
            jobs=2,
            wall_seconds=10.0,
        )
        assert summary.median_seconds == 1.5
        assert [label for label, _ in summary.stragglers] == [
            "slower", "slow"
        ]
        assert "stragglers (>2x median)" in summary.render()

    def test_utilisation_capped_and_zero_guarded(self):
        perfect = summarize_timing(
            [_outcome("a", 4.0)], jobs=2, wall_seconds=1.0
        )
        assert perfect.utilisation == 1.0  # capped despite work > capacity
        idle = summarize_timing(
            [_outcome("a", 1.0)], jobs=2, wall_seconds=0.0
        )
        assert idle.utilisation == 0.0

    def test_render_reports_pool_shape(self):
        summary = summarize_timing(
            [_outcome(c, 1.0) for c in "abcd"], jobs=4, wall_seconds=2.0
        )
        text = summary.render()
        assert "4 run(s): 4.00s work in 2.00s wall on 4 job(s)" in text
        assert "pool utilisation 50%" in text


class TestStderrProgress:
    def test_accumulates_outcomes_and_summarises(self, capsys):
        plan = ExecutionPlan(
            "acc",
            [RunSpec(key=(i,), fn=_double, kwargs={"x": i}) for i in range(3)],
        )
        progress = StderrProgress("acc")
        execute_plan(plan, jobs=1, progress=progress)
        assert len(progress.outcomes) == 3
        summary = progress.summary(jobs=1)
        assert summary.runs == 3
        assert summary.wall_seconds > 0
        err = capsys.readouterr().err
        assert "[acc 3/3]" in err

    def test_factory_returns_accumulating_instance(self):
        progress = stderr_progress("compat")
        assert isinstance(progress, StderrProgress)
        assert progress.outcomes == []


class TestCrossTopologyPlanShape:
    def test_plan_grid_matches_reduce_expectations(self):
        plan = plan_cross_topology(scale=SMALL, num_hosts=16, degrees=(4,))
        keys = {spec.key for spec in plan.specs}
        assert len(keys) == len(plan.specs)
        results = execute_plan(plan, jobs=1)
        result = reduce_cross_topology(plan, results)
        assert {row["degree"] for row in result.rows} == {4}
