"""Shared plumbing of the performance ledger: paths, metric names, stats.

Everything here is owned by the benchmark.  Nothing is imported from
``repro`` at module level, so ``compare.py`` and the tests can use it
without the simulator on ``sys.path``.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent.parent
SRC_DIR = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = LEDGER_DIR / "expected.json"
GOLDEN_DIR = ROOT / "tests" / "experiments" / "golden"
#: scratch space for store directories, span files and child results;
#: inside the checkout (the driver forbids writing elsewhere), ignored
#: by git
OUT_DIR = LEDGER_DIR / "out"

#: per-layer metrics that are counts of simulated or scheduled work and
#: repeat bit-for-bit at a fixed seed; ``compare.py`` fails on any drift
EXACT_METRICS = frozenset(
    {
        "sim.ticks",
        "sim.steps",
        "sim.cycles_skipped",
        "sim.ff_jumps",
        "switch.ticks",
        "host.ticks",
        "link.flit_hops",
        "network.builds",
        "plan.specs",
        "store.hits",
        "store.misses",
        "store.coalesced",
        "model.sim_cycles",
        "model.deliveries",
        "model.unicast_latency_mean_cycles",
        "model.op_last_latency_mean_cycles",
        "model.completed",
    }
)


#: seconds one calibration unit takes on the recording machine at its
#: usual speed; reported times are scaled to this speed (see
#: ``machine_speed``), so they read as seconds on that machine
REFERENCE_UNIT_S = 0.0060

#: simulation repeats cycle through this many traffic realisations
#: (simulator seeds) per ``--seed``; ``expected.json`` records each
SEED_CYCLE = 12


def load_benchmark() -> Dict[str, Any]:
    """The benchmark definition at the root of the repository."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    # with few samples the method extrapolates past the sample itself
    return float(max(q1, min(values))), float(q2), float(min(q3, max(values)))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(share * (len(ordered) - 1))))
    return float(ordered[rank])


def _calibration_unit() -> None:
    """A fixed piece of interpreter work that touches nothing of the
    repository.  Frozen: changing it rescales every recorded number."""
    counts: Dict[int, int] = {}
    for index in range(60_000):
        counts[index & 1023] = counts.get(index & 1023, 0) + index


def machine_speed() -> float:
    """Seconds per calibration unit right now (median of six, ~35 ms).

    The sandbox's two virtual CPUs share their cores with other
    tenants: the same single-threaded work runs about 25% faster while
    the neighbour is idle, in phases that last seconds to minutes —
    longer than a repeat, sometimes longer than a run.  No statistic
    over the repeats of one run removes that, so each repeat's times
    are scaled by ``REFERENCE_UNIT_S`` over the speed measured just
    before and after it.
    """
    costs = []
    for _ in range(6):
        began = time.perf_counter()
        _calibration_unit()
        costs.append(time.perf_counter() - began)
    return median(costs)


def _covered(spans: Sequence[Dict[str, Any]], within: Dict[str, Any]) -> float:
    """Length of the union of ``spans``, clipped to ``within``."""
    covered = 0.0
    edge = within["start"]
    for start, end in sorted((span["start"], span["end"]) for span in spans):
        start = max(start, edge)
        end = min(end, within["end"])
        if end > start:
            covered += end - start
            edge = end
    return covered


#: spans of a repeat that lie outside its timed section
UNTIMED_SPANS = ("repeat", "setup", "build")


class SpanLog:
    """Spans kept in memory and written out when the benchmark ends.

    One row per span: ``(id, name, start, end, parent, run)``; ``run``
    ties every span of one repeat together.  A disabled log records
    nothing, so untraced repeats run the same code without the rows.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.run = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        row = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str, start: float) -> Dict[str, Any]:
        row = {
            "id": len(self.rows),
            "name": name,
            "start": start,
            "end": start,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        return row

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span under the currently open one (used for spans
        measured elsewhere, such as a spec timed by its worker)."""
        if self.enabled:
            self._open(name, start)["end"] = end
            self._stack.pop()

    def self_times(
        self, run: Optional[str] = None, parallel: Sequence[str] = ("spec",)
    ) -> Dict[str, float]:
        """Self time by span name: a span's duration minus the part of
        it that its child spans cover.

        Spans named in ``parallel`` ran beside each other in worker
        processes; together they count once, for the part of their
        parent that they cover, so that the self times of one repeat
        add up to its wall time.
        """
        rows = [r for r in self.rows if run is None or r["run"] == run]
        children: Dict[int, List[Dict[str, Any]]] = {}
        for row in rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append(row)
        out: Dict[str, float] = {}
        for row in rows:
            if row["name"] in parallel:
                continue
            mine = children.get(row["id"], [])
            out[row["name"]] = (
                out.get(row["name"], 0.0)
                + (row["end"] - row["start"])
                - _covered(mine, row)
            )
            for name in parallel:
                group = [child for child in mine if child["name"] == name]
                if group:
                    out[name] = out.get(name, 0.0) + _covered(group, row)
        return out

    def timed_self_sum(self, run: str) -> float:
        """Self times of one repeat's timed section, added up."""
        return sum(
            seconds for name, seconds in self.self_times(run).items()
            if name not in UNTIMED_SPANS
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": self.rows}, indent=1) + "\n",
            encoding="utf-8",
        )
