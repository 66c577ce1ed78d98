"""Run the kill matrix: apply each row of ``table.py`` and see what catches it.

Each row is applied to its own copy of the tree (``git ls-files``, so
new files count), where tier-1 runs with ``pytest -x`` under an
address-space limit and a wall timeout.  ``tests/mutation`` is left out
(its staleness check fails on every mutant).  A row records the first
failing test id (``null``: it survived; ``"timeout"``: tier-1 hung) and
the runtime.  See docs/testing.md, "Kill matrix".

    python tests/mutation/run.py [--jobs 2]   # every row; rewrites the matrix
    python tests/mutation/run.py --row NAME   # one row, merged into it
    python tests/mutation/run.py --check      # exit 1: a row unkilled or drifted
    python tests/mutation/run.py --baseline   # exit 1: the unmutated copy fails

Nothing is written in the checkout but ``tests/mutation/kill_matrix.json``
(and nothing at all under ``--check`` or ``--baseline``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
MATRIX = ROOT / "tests" / "mutation" / "kill_matrix.json"

sys.path.insert(0, str(ROOT))
from tests.mutation.table import ROWS, Row  # noqa: E402

#: wall seconds for one tier-1 run (a survivor takes about 7 min alone,
#: 10 beside another), and the address-space limit of each test process
TIMEOUT = 1200.0
MEM_MB = 4096

TIER1 = [
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--ignore=tests/mutation",
]


def mutant_tree(row: Optional[Row], into: Path) -> None:
    """Copy the tracked tree to ``into`` (a git repository of its own, so
    provenance reads a commit) and apply ``row`` (``None``: no edit)."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    if row is not None:
        target = into / row.file
        text = target.read_text(encoding="utf-8")
        if text.count(row.anchor) != 1:
            raise SystemExit(f"{row.name}: anchor does not match exactly once")
        target.write_text(text.replace(row.anchor, row.replacement), "utf-8")
    git = ["git", "-c", "user.name=mutant", "-c", "user.email=mutant@localhost"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "mutant"]):
        subprocess.run(git + argv, cwd=into, check=True, capture_output=True)


def _limit_memory() -> None:
    limit = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def first_failure(output: str) -> Optional[str]:
    """The first ``FAILED``/``ERROR`` test id of a pytest summary."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0].strip()
    return None


def run_row(row: Optional[Row]) -> Dict[str, Any]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch)
        mutant_tree(row, tree)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, *TIER1], cwd=tree, env=env,
                capture_output=True, text=True, timeout=TIMEOUT,
                preexec_fn=_limit_memory,
            )
            if done.returncode == 0:
                killed_by = None
            else:
                killed_by = first_failure(done.stdout) or (
                    f"exit {done.returncode}"
                )
        except subprocess.TimeoutExpired:
            killed_by = "timeout"
        seconds = round(time.perf_counter() - started, 1)
        return {
            "name": row.name if row else "baseline",
            "file": row.file if row else None,
            "breaks": row.breaks if row else None,
            "killed_by": killed_by,
            "seconds": seconds,
        }


def load_matrix() -> Dict[str, Dict[str, Any]]:
    if not MATRIX.exists():
        return {}
    return {row["name"]: row for row in json.loads(MATRIX.read_text())["rows"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", action="append", help="run only these rows")
    parser.add_argument("--jobs", type=int, default=1, help="rows at a time")
    parser.add_argument("--check", action="store_true",
                        help="compare with the checked-in matrix, write nothing")
    parser.add_argument("--baseline", action="store_true",
                        help="run tier-1 on the unmutated copy only")
    args = parser.parse_args(argv)
    if args.baseline:
        result = run_row(None)
        print(json.dumps(result))
        return 0 if result["killed_by"] is None else 1
    names = {row.name for row in ROWS}
    unknown = sorted(set(args.row or ()) - names)
    if unknown:
        parser.error(f"unknown row(s): {', '.join(unknown)}")
    rows = [row for row in ROWS if not args.row or row.name in args.row]

    def run(row: Row) -> Dict[str, Any]:
        result = run_row(row)
        print(f"{row.name}: {result['killed_by'] or 'SURVIVED'} "
              f"({result['seconds']}s)", flush=True)
        return result

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = {result["name"]: result for result in pool.map(run, rows)}
    recorded = load_matrix()
    failures = [name for name, result in results.items()
                if result["killed_by"] is None]
    if args.check:
        failures += [
            name for name, result in results.items()
            if (result["killed_by"] is None)
            != (recorded.get(name, {}).get("killed_by") is None)
        ]
        for name in sorted(set(failures)):
            print(f"unkilled or drifted: {name}", file=sys.stderr)
        return 1 if failures else 0
    merged = {**recorded, **results}
    ordered = [merged[row.name] for row in ROWS if row.name in merged]
    # one row per line, so a rerun's diff reads row by row
    lines = ",\n".join(json.dumps(row) for row in ordered)
    MATRIX.write_text('{"rows": [\n' + lines + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
