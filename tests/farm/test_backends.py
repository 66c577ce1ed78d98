"""Backend contract tests: serial, local pool, and the fleet protocol.

Every backend must move values untransformed, answer every dispatch
with exactly one completion-or-failure, and re-raise worker exceptions
as the campaign's own error — the contract the campaign driver builds
its bit-identity and fault-tolerance guarantees on.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.experiments.parallel import (
    ExecutionPlan,
    RunSpec,
    resolve,
    run_outcomes,
)
from repro.farm.backends import (
    CompletedJob,
    FarmError,
    LocalPoolBackend,
    SerialBackend,
    SubprocessFleetBackend,
    WorkerFailure,
)
from repro.farm.campaign import run_campaign
from repro.farm import transport
from repro.farm.runtime import FarmSession
from repro.farm.transport import BackendUnavailable
from repro.store.backend import MemoryStore

from tests.farm import _workers


def spec(i):
    return RunSpec(key=("s", i), fn=_workers.square, kwargs={"x": i})


def plan(n, name="plan"):
    return ExecutionPlan(name, [spec(i) for i in range(n)])


REFERENCE = {("s", i): {"x": i, "squared": i * i} for i in range(6)}


class TestSerialBackend:
    def test_dispatches_complete_in_fifo_order(self):
        backend = SerialBackend()
        backend.start(2)
        backend.dispatch(1, spec(5))
        backend.dispatch(0, spec(2))
        first = backend.collect()
        second = backend.collect()
        assert isinstance(first, CompletedJob)
        assert (first.worker, first.spec.key) == (1, ("s", 5))
        assert (second.worker, second.spec.key) == (0, ("s", 2))
        assert first.value == {"x": 5, "squared": 25}
        backend.close()

    def test_collect_without_dispatch_is_a_bug(self):
        backend = SerialBackend()
        backend.start(1)
        with pytest.raises(FarmError, match="nothing dispatched"):
            backend.collect()

    def test_worker_exception_propagates(self):
        backend = SerialBackend()
        backend.start(1)
        backend.dispatch(0, RunSpec(key=("b",), fn=_workers.boom))
        with pytest.raises(_workers.Detonation, match="exploded"):
            backend.collect()


class TestFleetBackend:
    def test_frames_already_waiting_are_each_collected(self):
        # the hello frame and the result both sit in the pipe before the
        # first collect: a buffered stream would read them at once and
        # leave select() blind to the result, hanging the collect (first
        # in the class, so a bounded wait names that before a campaign
        # below hangs on it)
        backend = SubprocessFleetBackend()
        backend.start(1)
        collected = []
        try:
            backend.dispatch(0, spec(3))
            stream = backend._procs[0].stdout
            assert transport.wait_readable([stream], timeout=30)
            time.sleep(0.5)  # the result follows the hello at once
            collector = threading.Thread(
                target=lambda: collected.append(backend.collect()),
                daemon=True,
            )
            collector.start()
            collector.join(timeout=30)
        finally:
            backend.close()
        assert [job.value for job in collected] == [{"x": 3, "squared": 9}]

    def test_values_and_manifests_roundtrip(self):
        result = run_campaign(plan(6), SubprocessFleetBackend(), shards=2)
        assert resolve(result.outcomes) == REFERENCE
        assert set(result.worker_manifests) == {"w0", "w1"}
        for manifest in result.worker_manifests.values():
            assert manifest["extras"]["farm_worker"] in ("w0", "w1")
        assert [o.worker in ("w0", "w1") for o in result.outcomes]

    def test_worker_exception_reraised_as_original_type(self):
        bad = ExecutionPlan(
            "bad",
            [spec(0), RunSpec(key=("b",), fn=_workers.boom)],
        )
        with pytest.raises(_workers.Detonation, match="exploded"):
            run_campaign(bad, SubprocessFleetBackend(), shards=2)

    def test_double_dispatch_to_busy_worker_rejected(self):
        backend = SubprocessFleetBackend()
        backend.start(1)
        try:
            backend.dispatch(0, spec(0))
            with pytest.raises(FarmError, match="in flight"):
                backend.dispatch(0, spec(1))
        finally:
            backend.close()

    def test_campaign_manifest_merges_worker_provenance(self):
        result = run_campaign(plan(4), SubprocessFleetBackend(), shards=2)
        merged = result.manifest()
        workers = merged.extras["farm_workers"]
        assert set(workers) == {"w0", "w1"}
        for report in workers.values():
            assert report["manifest"]["extras"]["farm_worker"]
        assert (
            sum(report["runs"] for report in workers.values()) == 4
        )
        assert merged.extras["farm_backend"] == "fleet"


class TestLocalPoolBackend:
    def test_session_matches_serial_reference(self):
        outcomes = FarmSession(kind="local", shards=2).run(plan(6))
        assert resolve(outcomes) == REFERENCE

    def test_collect_answers_each_dispatch_once(self):
        backend = LocalPoolBackend()
        backend.start(2)
        try:
            backend.dispatch(0, spec(2))
            backend.dispatch(1, spec(5))
            jobs = [backend.collect(), backend.collect()]
            with pytest.raises(FarmError, match="nothing dispatched"):
                backend.collect()
        finally:
            backend.close()
        assert {(job.worker, job.spec.key) for job in jobs} == {
            (0, ("s", 2)),
            (1, ("s", 5)),
        }
        assert {job.worker: job.value for job in jobs} == {
            0: {"x": 2, "squared": 4},
            1: {"x": 5, "squared": 25},
        }

    def test_raising_spec_wakes_collect_with_the_original_error(self):
        # the error callback must feed the completion queue too, or
        # collect() waits forever on a job that already failed
        backend = LocalPoolBackend()
        backend.start(1)
        try:
            backend.dispatch(0, RunSpec(key=("b",), fn=_workers.boom))
            with pytest.raises(_workers.Detonation, match="exploded"):
                backend.collect()
        finally:
            backend.close()


class TestBackendFallback:
    def test_unavailable_backend_falls_back_to_serial(self):
        calls = []

        class Unavailable(SerialBackend):
            def start(self, workers):
                calls.append("tried")
                raise BackendUnavailable("no processes here")

        session = FarmSession(kind="fleet", shards=2)
        session.kind = "fleet"
        # candidate list is [fleet, serial]; force the first to fail
        session.backend_factory = None
        import repro.farm.runtime as farm_runtime

        original = farm_runtime._backend_candidates
        farm_runtime._backend_candidates = lambda kind: [
            Unavailable,
            SerialBackend,
        ]
        # one spec is already journaled: the retry must not emit its
        # hit a second time, so the backend starts before any emission
        store = MemoryStore()
        run_campaign(plan(1), SerialBackend(), 1, store=store)
        done = []
        try:
            outcomes = session.run(
                plan(4),
                store,
                progress=lambda outcome, count, total: done.append(count),
            )
        finally:
            farm_runtime._backend_candidates = original
        assert calls == ["tried"]
        assert done == [1, 2, 3, 4]
        assert store.puts == 4
        assert resolve(outcomes) == {
            key: value
            for key, value in REFERENCE.items()
            if key[1] < 4
        }

    def test_sole_candidate_unavailable_raises(self):
        class Unavailable(SerialBackend):
            def start(self, workers):
                raise BackendUnavailable("nope")

        session = FarmSession(backend_factory=Unavailable)
        with pytest.raises(BackendUnavailable):
            session.run(plan(2))


class TestRunOutcomesIntegration:
    def test_active_farm_session_hooks_run_outcomes(self):
        from repro.farm import runtime as farm_runtime

        farm_runtime.configure(
            FarmSession(backend_factory=SerialBackend, shards=3)
        )
        try:
            outcomes = run_outcomes(plan(6))
        finally:
            farm_runtime.reset()
        assert resolve(outcomes) == REFERENCE
        assert all(o.worker.startswith("w") for o in outcomes)

    def test_shards_default_to_the_callers_jobs(self):
        from repro.farm import runtime as farm_runtime

        session = FarmSession(backend_factory=SerialBackend)
        farm_runtime.configure(session)
        try:
            outcomes = run_outcomes(plan(6), jobs=3)
        finally:
            farm_runtime.reset()
        assert resolve(outcomes) == REFERENCE
        assert session.last_result.shards == 3
        assert {o.worker for o in outcomes} == {"w0", "w1", "w2"}

    def test_runner_reports_the_shard_count_it_used(
        self, tmp_path, capsys
    ):
        import json

        from repro.experiments.runner import main

        manifest = tmp_path / "farm.json"
        argv = ["--experiment", "a3", "--scale", "quick"]
        argv += ["--farm", "serial", "--jobs", "3"]
        assert main(argv + ["--farm-manifest", str(manifest)]) == 0
        assert "farm=serial, shards=3]" in capsys.readouterr().out
        extras = json.loads(manifest.read_text())["extras"]
        assert extras["farm_shards"] == 3
        assert sorted(extras["farm_workers"]) == ["w0", "w1", "w2"]

    def test_no_session_leaves_plain_path_untouched(self):
        outcomes = run_outcomes(plan(6), jobs=1)
        assert resolve(outcomes) == REFERENCE
        assert all(o.worker == "" for o in outcomes)


class TestWorkerFailureShape:
    def test_failure_carries_worker_and_reason(self):
        failure = WorkerFailure(worker=3, reason="EOF")
        assert (failure.worker, failure.reason) == (3, "EOF")
