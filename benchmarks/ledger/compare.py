"""Apply the bounds of ``BENCHMARK.json`` to two result files.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or
the second set); both come from ``run.py --out``.  One row per
(workload, metric).  With several runs of a workload in a file the
median and quartiles are taken across the runs' values; with one run,
across its repeats.

Verdicts for an end-to-end metric, with ``bound`` its share of A's
median:

``same``        B's median is within the bound of A's;
``worse``       beyond the bound on the bad side, quartile ranges apart;
``better``      beyond the bound on the good side, quartile ranges apart;
``unresolved``  beyond the bound either way, but the quartile ranges
                overlap: the spread is wider than the difference, so
                neither "unchanged" nor "changed" is shown — run more.

Per-layer metrics have no bound: exact counts (``common.EXACT_METRICS``)
are ``same`` or ``drift``, the rest are listed with their change only.
Exit 1 on any ``worse``, any ``drift``, or a failed share that grew.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
from common import quartiles

Stat = Tuple[float, float, float]  # q1, median, q3


def load_runs(path: str) -> List[Dict[str, Any]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data["runs"] if "runs" in data else [data]


def _stat(runs: Sequence[Dict[str, Any]], metric: str) -> Optional[Stat]:
    found = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
    if not found:
        return None
    if len(found) == 1:
        only = found[0]
        return only["q1"], only["value"], only["q3"]
    return quartiles([entry["value"] for entry in found])


def verdict(a: Stat, b: Stat, better: str, bound: float) -> str:
    """See the module docstring."""
    if a[1] == 0:
        return "same" if b[1] == 0 else "unresolved"
    change = (b[1] - a[1]) / abs(a[1])
    if abs(change) <= bound:
        return "same"
    apart = b[0] > a[2] or b[2] < a[0]
    if not apart:
        return "unresolved"
    improved = change > 0 if better == "higher" else change < 0
    return "better" if improved else "worse"


def compare(
    a_runs: Sequence[Dict[str, Any]],
    b_runs: Sequence[Dict[str, Any]],
    benchmark: Dict[str, Any],
) -> Tuple[List[Tuple[str, ...]], bool]:
    """Rows ``(workload, metric, A, B, change, verdict)`` and whether
    anything got worse."""
    rows: List[Tuple[str, ...]] = []
    bad = False
    bounded = {m["name"]: m for m in benchmark["end_to_end"]}
    listed = benchmark["end_to_end"] + benchmark["per_layer"]
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for trace in (0, 1):
            mine = [
                [r for r in runs
                 if r["workload"] == workload and r["trace"] == trace]
                for runs in (a_runs, b_runs)
            ]
            if not (mine[0] and mine[1]):
                continue
            shares = [
                sum(r["failed"] for r in runs)
                / max(1, sum(r["attempted"] for r in runs))
                for runs in mine
            ]
            grew = shares[1] > shares[0]
            bad = bad or grew
            rows.append((
                workload, "fail_share", f"{shares[0]:.6g}",
                f"{shares[1]:.6g}", "", "worse" if grew else "same",
            ))
            for metric in listed:
                name = metric["name"]
                a, b = _stat(mine[0], name), _stat(mine[1], name)
                if a is None or b is None:
                    continue
                if name in bounded:
                    result = verdict(
                        a, b, metric["better"], bounded[name]["bound"]
                    )
                elif name in common.EXACT_METRICS:
                    result = "same" if a[1] == b[1] else "drift"
                else:
                    result = "-"
                bad = bad or result in ("worse", "drift")
                change = f"{(b[1] - a[1]) / abs(a[1]):+.1%}" if a[1] else ""
                rows.append((
                    workload, name, f"{a[1]:.6g}", f"{b[1]:.6g}",
                    change, result,
                ))
    return rows, bad


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows, bad = compare(
        load_runs(args[0]), load_runs(args[1]), common.load_benchmark()
    )
    header = ("workload", "metric", "A", "B", "change", "verdict")
    widths = [
        max(len(row[col]) for row in [header] + rows)
        for col in range(len(header))
    ]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
