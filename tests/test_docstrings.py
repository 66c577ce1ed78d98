"""Every ``>>>`` example in a ``repro`` docstring runs and prints what
it shows."""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent


def _modules_with_examples():
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield importlib.import_module(".".join(parts))


def test_every_docstring_example_holds():
    report = []
    runner = doctest.DocTestRunner()
    for module in _modules_with_examples():
        for test in doctest.DocTestFinder().find(module):
            runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
