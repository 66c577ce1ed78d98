"""The lint engine: gather files, run rules, partition the results.

:func:`lint_paths` is the single entry point used by the CLI and the
test suite.  It walks the given files/directories, parses each python
file once, runs every (selected) rule over it, then partitions raw
findings two ways:

* **suppressed** — an inline ``# reprolint: ignore[CODE] reason``
  comment on the finding's line waives it;
* **new** — everything else; these fail the gate.

Every rule sees one file at a time, so linting a path parses that path
and nothing else.

Files that do not parse surface as ``REP000`` findings (not
suppressible — a file the linter cannot read is a file the invariants
cannot be checked in), and results are sorted by path/line/code so
output is stable across filesystems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.analysis.findings import Finding, scan_suppressions
from repro.analysis.rules import Rule, all_rules
from repro.analysis.source import SourceModule

#: directory names never descended into
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", "build",
     "dist", ".venv", "node_modules"}
)

#: code reserved for files the linter cannot parse
PARSE_ERROR_CODE = "REP000"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    checked_files: int = 0
    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when the gate passes, 1 when new findings exist."""
        return 1 if self.new else 0


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, in sorted order."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(
                part in SKIP_DIRS or part.endswith(".egg-info")
                for part in candidate.parts
            ):
                continue
            yield candidate


def _display_path(path: Path, root: Optional[Path]) -> str:
    """Path as reported in findings: relative to ``root`` if possible."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Lint every python file under ``paths``.

    Parameters
    ----------
    paths:
        Files and/or directories to check.
    rules:
        Rule instances to run; default is every registered rule.
    root:
        Directory findings' paths are reported relative to (default:
        the current working directory).
    """
    active_rules = list(rules) if rules is not None else all_rules()
    root = root if root is not None else Path.cwd()
    result = LintResult()

    for file_path in iter_python_files(paths):
        display = _display_path(file_path, root)
        try:
            module = SourceModule.parse(file_path, display_path=display)
        except (SyntaxError, ValueError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            result.new.append(
                Finding(
                    code=PARSE_ERROR_CODE,
                    path=display,
                    line=int(line),
                    col=0,
                    message=f"cannot parse file: {error}",
                    hint="fix the syntax error; invariants of an "
                    "unparseable file cannot be checked",
                )
            )
            result.checked_files += 1
            continue
        result.checked_files += 1
        suppressions = scan_suppressions(module.text)
        for rule in active_rules:
            for finding in rule.check(module):
                waiver = suppressions.get(finding.line)
                if waiver is not None and finding.code in waiver.codes:
                    result.suppressed.append(finding)
                else:
                    result.new.append(finding)

    result.new.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result

