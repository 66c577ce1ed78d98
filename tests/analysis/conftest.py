"""Helpers for the reprolint test suite.

Fixture snippets are written into a throwaway ``repro``-shaped tree so
the package-scoped rules (kernel paths, the rng/obs allowlists) see the
module names they key on: ``lint_snippet(tmp_path, "repro/sim/x.py",
src)`` behaves exactly like linting ``src/repro/sim/x.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Optional, Sequence

import pytest

from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.rules import all_rules


def lint_snippet(
    tmp_path: Path,
    rel_path: str,
    source: str,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Write ``source`` at ``rel_path`` under ``tmp_path`` and lint it."""
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = all_rules(select) if select is not None else None
    return lint_paths([target], rules=rules, root=tmp_path)


@pytest.fixture
def lint(tmp_path):
    """Partial application of :func:`lint_snippet` over ``tmp_path``."""

    def _lint(rel_path, source, select=None):
        return lint_snippet(tmp_path, rel_path, source, select=select)

    return _lint


def codes(result: LintResult) -> list:
    """The codes of the *new* findings, in report order."""
    return [finding.code for finding in result.new]
