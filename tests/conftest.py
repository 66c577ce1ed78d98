"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.schemes import MulticastScheme, SwitchArchitecture
from repro.flits.destset import DestinationSet
from repro.network.builder import Network, build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import SimulationResult, run_workload
from repro.traffic.base import Workload


def pytest_addoption(parser):
    """``--regenerate-golden`` rewrites the experiment snapshots.

    Run ``PYTHONPATH=src python -m pytest tests/experiments/test_golden.py
    --regenerate-golden`` after an *intended* numeric change, then commit
    the updated ``tests/experiments/golden/*.json`` with the change that
    caused it.
    """
    parser.addoption(
        "--regenerate-golden",
        action="store_true",
        default=False,
        help="rewrite tests/experiments/golden/*.json from current results",
    )


#: ``--hypothesis-profile=sweep``: the five whole-network sweeps of the
#: differential harness (``tests.differential.sweep``) search at random,
#: this many examples each, instead of replaying the fixed draw tier-1
#: runs (CI gives the search a step of its own)
settings.register_profile("sweep", max_examples=100)

pytest.register_assert_rewrite("tests.differential")


@pytest.fixture(scope="session")
def runs():
    """The differential harness' run cache: each (measure, scenario,
    configuration) simulated once per session (tests/differential.py)."""
    from tests.differential import RunCache

    return RunCache()


def poll_until(predicate, timeout=60.0, interval=0.01, message="condition"):
    """Spin until ``predicate()`` is truthy; fail the test on timeout.

    The crash/fault tests coordinate with subprocesses through
    *observable state* (journal entries on disk, a process exiting) —
    never a fixed sleep, which is exactly as long as the flake it
    papers over.  Poll cheaply, fail loudly.
    """
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out after {timeout:.0f}s waiting for {message}")
        time.sleep(interval)


def journal_entry_count(store_dir) -> int:
    """Completed result entries across a store's journal segments.

    Counts schema-tagged entry lines the same way the store's own
    scanner does, so tests can watch a campaign's progress from outside
    the writing process.
    """
    segments = Path(store_dir) / "segments"
    if not segments.is_dir():
        return 0
    count = 0
    for path in segments.iterdir():
        text = path.read_text(encoding="utf-8")
        count += sum(
            1
            for line in text.splitlines()
            if '"repro.store.entry/1"' in line
        )
    return count


def wait_journal_quiescent(store_dir, settle=0.25, timeout=60.0):
    """Block until the journal stops growing for ``settle`` seconds.

    After SIGKILLing a campaign process, its pool/fleet children may
    briefly outlive it; sampling the journal until its byte size holds
    still guarantees every straggling write has landed (or torn) before
    the test inspects or resumes the store.  Returns the final entry
    count.
    """
    segments = Path(store_dir) / "segments"

    def footprint():
        if not segments.is_dir():
            return ()
        return tuple(
            sorted(
                (path.name, path.stat().st_size)
                for path in segments.iterdir()
            )
        )

    deadline = time.monotonic() + timeout
    last = footprint()
    held = time.monotonic()
    while time.monotonic() - held < settle:
        if time.monotonic() > deadline:
            pytest.fail(
                f"journal still growing after {timeout:.0f}s"
            )
        time.sleep(0.02)
        current = footprint()
        if current != last:
            last = current
            held = time.monotonic()
    return journal_entry_count(store_dir)


def tiny_config(**overrides) -> SimulationConfig:
    """A 16-host central-buffer BMIN with internal checks on."""
    defaults = dict(num_hosts=16, self_check=True)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def small_config(**overrides) -> SimulationConfig:
    """The paper's default 64-host system (checks on, fast parameters)."""
    defaults = dict(num_hosts=64, self_check=True)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def run(config: SimulationConfig, workload: Workload, **kwargs) -> SimulationResult:
    """Build and run, asserting the workload completed."""
    network = build_network(config)
    result = run_workload(network, workload, **kwargs)
    assert result.completed, "workload exceeded its cycle budget"
    return result


def run_network(config: SimulationConfig, workload: Workload, **kwargs):
    """Like :func:`run` but also returns the network for inspection."""
    network = build_network(config)
    result = run_workload(network, workload, **kwargs)
    return result, network


def dests(universe: int, *ids: int) -> DestinationSet:
    """Shorthand destination-set constructor."""
    return DestinationSet.from_ids(universe, ids)


@pytest.fixture
def tiny_network() -> Network:
    """A built (unrun) 16-host central-buffer network."""
    return build_network(tiny_config())


ALL_ARCHITECTURES = list(SwitchArchitecture)
ALL_SCHEMES = list(MulticastScheme)
