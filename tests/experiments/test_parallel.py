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

The default executor keeps one pool per process; the last classes pin
its lifetime by worker pids and cache counts, the job contract (a
worker runs under the telemetry options its plan was submitted with,
whatever it inherited at fork) and a clean interpreter exit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schemes import MulticastScheme
from repro.experiments.common import Scale, Scheme, simulate_summary
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
    _execute_job,
    default_jobs,
    execute_plan,
    resolve,
    run_outcomes,
    summarize_timing,
)
from repro.farm import transport
from repro.network.builder import _cached_topology, build_network
from repro.network.config import SimulationConfig
from repro.obs import runtime as obs_runtime
from repro.obs.sinks import SCHEMA_RUN, iter_jsonl
from repro.traffic.multicast import SingleMulticast

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


def _sleepy_pid(tag):
    """Long enough that a plan of several spreads over every worker."""
    time.sleep(0.02)
    return tag, os.getpid()


def _topology_misses(tag):
    build_network(SimulationConfig(num_hosts=16)).close()
    time.sleep(0.02)
    return os.getpid(), _cached_topology.cache_info().misses


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
        execute_plan(plan, jobs=1, progress=StderrProgress("cli"))
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
        progress = StderrProgress("compat")
        assert progress.outcomes == []


class TestCrossTopologyPlanShape:
    def test_plan_grid_matches_reduce_expectations(self):
        plan = plan_cross_topology(scale=SMALL, num_hosts=16, degrees=(4,))
        keys = {spec.key for spec in plan.specs}
        assert len(keys) == len(plan.specs)
        results = execute_plan(plan, jobs=1)
        result = reduce_cross_topology(plan, results)
        assert {row["degree"] for row in result.rows} == {4}


def _pid_plan(name, count=8):
    return ExecutionPlan(
        name,
        [
            RunSpec(key=(tag,), fn=_sleepy_pid, kwargs={"tag": tag})
            for tag in range(count)
        ],
    )


def _pids(name, jobs):
    """The worker pids a plan of sleepy specs ran on, values checked."""
    results = execute_plan(_pid_plan(name), jobs=jobs)
    assert {key: tag for key, (tag, _) in results.items()} == {
        (tag,): tag for tag in range(8)
    }
    return {pid for _, pid in results.values()}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _pool_members():
    import multiprocessing

    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def fresh_pool():
    """Each case starts the process's pool itself and leaves none."""
    transport._retire_kept_pool()
    yield
    transport._retire_kept_pool()


@pytest.mark.usefixtures("fresh_pool")
class TestOnePoolPerProcess:
    """Plans of one ``jobs`` share the process's pool; anything that
    abandons a plan, or another size, retires it."""

    def test_plans_of_one_size_run_on_one_live_pool(self):
        first = _pids("first", jobs=2)
        second = _pids("second", jobs=2)
        assert len(first | second) <= 2
        assert first | second <= _pool_members()
        assert os.getpid() not in first | second

    def test_another_size_replaces_the_pool(self):
        old = _pids("two", jobs=2)
        new = _pids("three", jobs=3)
        assert not new & old
        assert not any(_alive(pid) for pid in old)
        assert new <= _pool_members()
        assert os.getpid() not in new

    def test_a_plan_with_fewer_leaders_keeps_it(self):
        _pids("wide", jobs=3)
        members = _pool_members()
        narrow = execute_plan(_pid_plan("narrow", count=2), jobs=3)
        assert {pid for _, pid in narrow.values()} <= members
        assert all(_alive(pid) for pid in members)

    def test_any_other_pool_retires_it_first(self):
        kept = _pids("kept", jobs=2)
        other = transport.create_pool(2)
        try:
            assert not any(_alive(pid) for pid in kept)
        finally:
            other.terminate()
            other.join()

    def test_a_raising_spec_retires_the_pool(self):
        before = _pids("before", jobs=2)
        specs = _pid_plan("boom", count=5).specs
        specs.append(RunSpec(key=("bad",), fn=_boom))
        with pytest.raises(RuntimeError, match="worker exploded"):
            execute_plan(ExecutionPlan("boom", specs), jobs=2)
        after = _pids("after", jobs=2)
        assert not after & before
        assert not any(_alive(pid) for pid in before)
        assert os.getpid() not in after

    def test_a_raising_progress_callback_retires_the_pool(self):
        before = _pids("before", jobs=2)

        def progress(outcome, done, total):
            if done == 2:
                raise KeyError("progress callback")

        with pytest.raises(KeyError, match="progress callback"):
            execute_plan(_pid_plan("noisy"), jobs=2, progress=progress)
        after = _pids("after", jobs=2)
        assert not after & before
        assert not any(_alive(pid) for pid in before)

    def test_a_one_leader_plan_runs_in_process(self):
        pool = _pids("pool", jobs=2)
        alone = execute_plan(_pid_plan("alone", count=1), jobs=2)
        assert alone == {(0,): (0, os.getpid())}
        assert all(_alive(pid) for pid in pool)  # and left the pool be

    def test_the_topology_cache_stays_warm_across_plans(self):
        def plan(name):
            return ExecutionPlan(
                name,
                [
                    RunSpec(key=(tag,), fn=_topology_misses,
                            kwargs={"tag": tag})
                    for tag in range(8)
                ],
            )

        misses = {}
        for pid, count in execute_plan(plan("first"), jobs=2).values():
            misses[pid] = max(misses.get(pid, 0), count)
        second = execute_plan(plan("second"), jobs=2).values()
        assert all(misses.get(pid) == count for pid, count in second)


def _summary_plan(name):
    return ExecutionPlan(
        name,
        [
            RunSpec(
                key=(seed,),
                fn=simulate_summary,
                kwargs=dict(
                    config=SimulationConfig(num_hosts=16, seed=seed),
                    workload_cls=SingleMulticast,
                    workload_kwargs=dict(
                        source=seed, degree=4, payload_flits=16,
                        scheme=MulticastScheme.HARDWARE,
                    ),
                    max_cycles=20_000,
                ),
            )
            for seed in range(4)
        ],
    )


def _run_starts(path):
    return [
        record
        for _, record in iter_jsonl(str(path))
        if record["schema"] == SCHEMA_RUN and record["event"] == "start"
    ]


@pytest.mark.usefixtures("fresh_pool")
class TestTelemetryTravelsWithTheJob:
    """A job is ``(spec, options)``: the options configured when its plan
    was submitted, not whatever the worker inherited at fork."""

    def test_a_pool_started_quiet_records_a_plan_submitted_recording(
        self, tmp_path
    ):
        _pids("quiet", jobs=2)
        members = _pool_members()
        path = tmp_path / "m.jsonl"
        with obs_runtime.enabled(metrics_out=str(path)):
            execute_plan(_summary_plan("recorded"), jobs=2)
        starts = _run_starts(path)
        assert sorted(start["seed"] for start in starts) == [0, 1, 2, 3]
        tags = {int(start["run"].split("-")[0]) for start in starts}
        assert tags <= members
        assert os.getpid() not in tags

    def test_a_pool_started_recording_is_quiet_for_a_plan_submitted_quiet(
        self, tmp_path
    ):
        path = tmp_path / "m.jsonl"
        with obs_runtime.enabled(metrics_out=str(path)):
            execute_plan(_summary_plan("recorded"), jobs=2)
        written = path.read_bytes()
        assert len(_run_starts(path)) == 4
        execute_plan(_summary_plan("quiet"), jobs=2)
        assert path.read_bytes() == written

    def test_a_job_restores_the_workers_own_options(self, tmp_path):
        path = tmp_path / "m.jsonl"
        spec = _summary_plan("one").specs[0]
        options = obs_runtime.ObsOptions(metrics_out=str(path))
        outcome = _execute_job((spec, options))
        assert outcome.key == spec.key
        assert obs_runtime.configured() is None
        assert len(_run_starts(path)) == 1


#: two plans on the kept pool, a farm campaign (whose own pool retires
#: it), then a plan that leaves a kept pool alive at interpreter exit
_POOLS_THEN_EXIT = textwrap.dedent(
    """
    from repro.experiments.parallel import (
        ExecutionPlan, RunSpec, execute_plan, resolve,
    )
    from repro.farm import LocalPoolBackend, run_campaign

    plan = ExecutionPlan(
        "exit",
        [RunSpec(key=(i,), fn=dict, kwargs={"x": i}) for i in range(6)],
    )
    expected = {(i,): {"x": i} for i in range(6)}
    assert execute_plan(plan, jobs=2) == expected
    assert execute_plan(plan, jobs=2) == expected
    campaign = run_campaign(plan, LocalPoolBackend(), 2)
    assert resolve(campaign.outcomes) == expected
    assert execute_plan(plan, jobs=2) == expected
    """
)


class TestCleanExit:
    """Warnings as errors: no unclosed pool at exit, no fork beside a
    live pool's threads (3.12 warns about that)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["-c", _POOLS_THEN_EXIT],
            [
                "-m", "repro.experiments.runner", "--experiment", "a3",
                "--scale", "quick", "--jobs", "2",
            ],
        ],
        ids=["plans-farm-plan", "runner-a3"],
    )
    def test_exits_zero_with_nothing_on_stderr(self, argv):
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [
                sys.executable,
                "-W", "error::ResourceWarning",
                "-W", "error::DeprecationWarning",
                *argv,
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
