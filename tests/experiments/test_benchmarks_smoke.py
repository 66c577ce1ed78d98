"""Benchmark smoke test: every bench module must import and assert green.

The ``benchmarks/`` suite is normally run by hand (it needs
``pytest-benchmark``), which means it can silently rot as the library
evolves.  This module imports every ``benchmarks/bench_*.py``, runs its
``test_*`` assertion functions once at BENCH scale through a stub
``benchmark`` fixture, and fails the main suite if any benchmark's
import, run, or shape assertion breaks.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

BENCHMARKS_DIR = Path(__file__).parent.parent.parent / "benchmarks"
BENCH_MODULES = sorted(
    path.stem for path in BENCHMARKS_DIR.glob("bench_*.py")
)


class StubBenchmark:
    """Replaces pytest-benchmark's fixture: run once, no timing stats."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def _load(module_name: str):
    """Import one bench module with benchmarks/ on sys.path (for
    ``_benchlib``), without requiring an installed package."""
    if str(BENCHMARKS_DIR) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS_DIR))
    if module_name in sys.modules:
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(
        module_name, BENCHMARKS_DIR / f"{module_name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_is_covered():
    """One ``bench_<id>_*.py`` per registered experiment, and no bench
    for an id the registry does not know (guards against silent renames)."""
    ids = sorted(name.split("_")[1] for name in BENCH_MODULES)
    assert ids == sorted(EXPERIMENTS)


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_benchmark_assertions_hold(module_name):
    module = _load(module_name)
    test_fns = [
        getattr(module, name)
        for name in sorted(dir(module))
        if name.startswith("test_") and callable(getattr(module, name))
    ]
    assert test_fns, f"{module_name} defines no test_* assertion function"
    for fn in test_fns:
        fn(StubBenchmark())
