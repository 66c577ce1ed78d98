"""Exact simulator counts of the ledger's five simulation workloads.

    python3 benchmarks/counts.py            # print the counts as JSON
    python3 benchmarks/counts.py --check    # exit 1: a count rose or a digest changed
    python3 benchmarks/counts.py --record   # rewrite benchmarks/counts.json

Each workload of the performance ledger's ``SIM_LOADS`` runs once at
simulator seed 1000 (the ledger's ``--seed 1``, first realisation) as
one traced ledger repeat (``simloads.run_repeat``), so the counts are
the ones the traced ledger run reports, read from the same probe: the
cycles the kernel stepped (``sim.steps``), the switch and host ticks,
and every link send and receive call (``link.tx_calls``,
``link.rx_calls``; a receive call that finds nothing counts too).
Those counts are the same on every machine and interpreter, so they
resolve what a wall cannot: a data-plane change that moves one more
call per flit.  The digest is the SHA-256 of the repeat's digest (its
cycles, flit-hops and summary), which must not move at all.

``--check`` compares with ``counts.json`` and names every workload
whose counter rose above its record, or read 0 (a profiler that saw
nothing), or whose digest changed.  A change that lowers a count
passes, and re-records it with ``--record``.  The
ledger's files are read, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "benchmarks" / "counts.json"
#: the simulator seed of the ledger's ``--seed 1``, first realisation
SEED = 1000

sys.dont_write_bytecode = True  # nothing lands in the ledger's directory
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))

from common import SpanLog  # noqa: E402
from simloads import SIM_LOADS, run_repeat  # noqa: E402

#: the counters recorded per workload, each of which may only fall
COUNTERS = (
    "sim.steps", "switch.ticks", "host.ticks", "link.tx_calls",
    "link.rx_calls",
)


def count(name: str) -> Dict[str, Any]:
    """One traced repeat of workload ``name``: its counters and its
    digest."""
    sample = run_repeat(SIM_LOADS[name], SEED, 1.0, SpanLog(True))
    layers = sample["layers"]
    encoded = json.dumps(
        sample["digest"], sort_keys=True, separators=(",", ":")
    )
    counts: Dict[str, Any] = {key: int(layers[key]) for key in COUNTERS}
    counts["digest"] = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    return counts


def check(counts: Dict[str, Dict[str, Any]]) -> List[str]:
    """What differs from the record: one line per offending workload."""
    record = json.loads(RECORD.read_text(encoding="utf-8"))["workloads"]
    problems = []
    for name in SIM_LOADS:
        now, then = counts[name], record.get(name)
        if then is None:
            problems.append(f"{name}: no record")
            continue
        risen = [
            f"{key} {then[key]} -> {now[key]}"
            for key in COUNTERS
            if now[key] > then[key] or now[key] == 0 < then[key]
        ]
        if now["digest"] != then["digest"]:
            risen.append("digest changed")
        if risen:
            problems.append(f"{name}: " + ", ".join(risen))
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    counts = {name: count(name) for name in SIM_LOADS}
    text = json.dumps({"seed": SEED, "workloads": counts}, indent=1) + "\n"
    if args.record:
        RECORD.write_text(text, encoding="utf-8")
        return 0
    if not args.check:
        sys.stdout.write(text)
        return 0
    problems = check(counts)
    for name in SIM_LOADS:
        print(name, " ".join(f"{key} {counts[name][key]}" for key in COUNTERS))
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
