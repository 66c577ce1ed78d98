"""A local pool worker that dies fails its plan closed.

A ``multiprocessing`` pool replaces a worker that died but never the
job it held, so a plan waiting on that job would block forever.  Both
local pool paths — the default executor (``execute_plan`` at
``jobs=2``) and the farm's ``LocalPoolBackend`` — must instead raise
:class:`~repro.farm.transport.WorkerLost` naming the unfinished specs.
Each plan runs in a subprocess under a timeout, so a regression fails
the test instead of hanging the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import sys
from pathlib import Path

from repro.experiments.parallel import (
    SOURCE_HIT, ExecutionPlan, RunSpec, execute_plan, run_outcomes,
)
from repro.farm import LocalPoolBackend, run_campaign
from repro.errors import ReproError
from repro.store import JournalStore
from tests.farm._workers import die_once, slow_square

path, store_dir = sys.argv[1], Path(sys.argv[2])
marker = str(store_dir.parent / "died")
specs = [
    RunSpec(key=("s", i), fn=slow_square, kwargs=dict(x=i, seconds=0.05))
    for i in range(8)
]
specs[5] = RunSpec(key=("s", 5), fn=die_once, kwargs=dict(x=5, marker=marker))
plan = ExecutionPlan("death", specs)
if path == "idle":
    # a kept pool's worker that dies between plans loses no spec
    import multiprocessing, os, signal
    slow = [RunSpec(key=("s", i), fn=slow_square,
                    kwargs=dict(x=i, seconds=0.6)) for i in range(4)]
    execute_plan(ExecutionPlan("warm", slow), jobs=2)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    print("ok:", len(execute_plan(ExecutionPlan("after", slow), jobs=2)))
    sys.exit()
try:
    if path == "executor":
        execute_plan(plan, jobs=2)
    elif path == "backend":
        run_campaign(plan, LocalPoolBackend(), 2)
    else:
        with JournalStore(store_dir) as store:
            run_outcomes(plan, jobs=2, store=store)
except ReproError as error:
    print("lost:", error)
else:
    sys.exit("the plan finished although a worker died")
if path == "store":
    with JournalStore(store_dir) as store:
        journaled = store.stats()["entries"]
        outcomes = run_outcomes(plan, jobs=2, store=store)
    hits = sum(outcome.source == SOURCE_HIT for outcome in outcomes)
    print("journaled:", journaled, "hits:", hits)
"""


def _run(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    # a session of its own, so a hung plan is killed with its pool
    process = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, path, str(tmp_path / "store")],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return subprocess.CompletedProcess(
        process.args, process.returncode, stdout, stderr
    )


@pytest.mark.parametrize("path", ["executor", "backend"])
def test_dead_worker_fails_the_plan_naming_its_spec(path, tmp_path):
    completed = _run(path, tmp_path)
    assert completed.returncode == 0, completed.stderr
    line = completed.stdout.splitlines()[0]
    assert line.startswith("lost: local pool worker(s) [")
    # the dead worker's spec is named, and at most one per worker
    assert "('s', 5)" in line
    assert line.count("('s', ") <= 2


def test_rerun_answers_every_journaled_spec_from_the_store(tmp_path):
    completed = _run("store", tmp_path)
    assert completed.returncode == 0, completed.stderr
    lost, counts = completed.stdout.splitlines()
    assert lost.startswith("lost: ")
    _, journaled, _, hits = counts.split()
    assert 0 < int(journaled) < 8
    assert int(hits) == int(journaled)


def test_worker_dead_between_plans_costs_no_spec(tmp_path):
    completed = _run("idle", tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == ["ok: 4"]
