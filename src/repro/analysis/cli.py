"""``python -m repro lint``: the command-line lint gate.

Exit codes follow the convention of the other gates in CI: ``0`` when
the tree is clean (inline-suppressed findings do not count), ``1``
when new findings exist, ``2`` for usage errors.

``--format json`` emits a single ``repro.lint/2`` object on stdout; its
layout is pinned by :data:`LINT_JSON_SCHEMA` (a JSON Schema the test
suite validates real output against) and documented in
``docs/static-analysis.md``.  ``--format github`` emits one GitHub
Actions ``::error`` workflow command per finding, so findings surface
as inline annotations on pull requests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro._version import __version__
from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.rules import all_rules, rule_catalog

#: schema tag stamped on ``--format json`` output
LINT_SCHEMA = "repro.lint/2"

#: JSON Schema (draft-07) for ``--format json`` output
LINT_JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.lint/2",
    "type": "object",
    "required": [
        "schema",
        "tool",
        "checked_files",
        "findings",
        "counts",
    ],
    "properties": {
        "schema": {"const": LINT_SCHEMA},
        "tool": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"const": "reprolint"},
                "version": {"type": "string"},
            },
        },
        "checked_files": {"type": "integer", "minimum": 0},
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "code",
                    "path",
                    "line",
                    "col",
                    "message",
                    "hint",
                ],
                "properties": {
                    "code": {"type": "string", "pattern": "^REP[0-9]{3}$"},
                    "path": {"type": "string"},
                    "line": {"type": "integer", "minimum": 1},
                    "col": {"type": "integer", "minimum": 0},
                    "message": {"type": "string"},
                    "hint": {"type": "string"},
                },
            },
        },
        "counts": {
            "type": "object",
            "required": ["new", "suppressed"],
            "properties": {
                "new": {"type": "integer", "minimum": 0},
                "suppressed": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "reprolint: AST-based checks for the invariants the "
            "reproduction's determinism, picklability and zero-overhead "
            "telemetry contracts depend on (see docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text); 'github' emits "
        "::error workflow commands for PR annotations",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _list_rules() -> int:
    for code, summary, docstring in rule_catalog():
        print(f"{code}  {summary}")
        for line in docstring.splitlines():
            print(f"        {line.rstrip()}")
        print()
    return 0


def _render_text(result: LintResult, out: Any = None) -> None:
    out = sys.stdout if out is None else out
    for finding in result.new:
        print(finding.render(), file=out)
    tail = (
        f"reprolint: {result.checked_files} file(s) checked, "
        f"{len(result.new)} finding(s)"
    )
    if result.suppressed:
        tail += f" ({len(result.suppressed)} suppressed)"
    print(tail, file=out)


def _gh_escape_data(text: str) -> str:
    """Escape a workflow-command message per GitHub's rules."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _gh_escape_property(text: str) -> str:
    """Escape a workflow-command property value (file=, title=, ...)."""
    return (
        _gh_escape_data(text).replace(":", "%3A").replace(",", "%2C")
    )


def _render_github(result: LintResult, out: Any = None) -> None:
    """One ``::error`` annotation per new finding, plus the summary."""
    out = sys.stdout if out is None else out
    for finding in result.new:
        message = finding.message
        if finding.hint:
            message += f" [hint: {finding.hint}]"
        print(
            "::error "
            f"file={_gh_escape_property(finding.path)},"
            f"line={finding.line},"
            f"col={finding.col + 1},"
            f"title={_gh_escape_property('reprolint ' + finding.code)}"
            f"::{_gh_escape_data(message)}",
            file=out,
        )
    print(
        f"reprolint: {result.checked_files} file(s) checked, "
        f"{len(result.new)} finding(s)",
        file=out,
    )


def _render_json(result: LintResult) -> None:
    payload: Dict[str, Any] = {
        "schema": LINT_SCHEMA,
        "tool": {"name": "reprolint", "version": __version__},
        "checked_files": result.checked_files,
        "findings": [finding.to_dict() for finding in result.new],
        "counts": {
            "new": len(result.new),
            "suppressed": len(result.suppressed),
        },
    }
    json.dump(payload, sys.stdout, indent=1, sort_keys=False)
    print()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    selected = None
    if args.select:
        selected = [code.strip() for code in args.select.split(",")]
    try:
        rules = all_rules(selected)
    except ValueError as error:
        parser.error(str(error))

    paths: List[Path]
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        default = Path("src")
        paths = [default if default.is_dir() else Path(".")]
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")

    result = lint_paths(paths, rules=rules)

    if args.format == "json":
        _render_json(result)
    elif args.format == "github":
        _render_github(result)
    else:
        _render_text(result)
    return result.exit_code
