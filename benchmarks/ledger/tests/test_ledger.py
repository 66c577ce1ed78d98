"""Tests of the performance ledger itself.

Run explicitly (tier 1 does not collect this directory)::

    python -m pytest benchmarks/ledger/tests

Workloads are shrunk through the ``shrink`` argument of ``run.main`` /
``run.measure``; there is no flag or environment variable for it, so a
real run cannot be shrunk by accident.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

BENCHMARK = common.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TWO_CPUS = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="times two workers side by side"
)


def _invoke(
    capsys, workload, trace, shrink=0.1, seconds=0.2, seed=7, **kwargs
):
    code = run.main(
        ["--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        shrink=shrink,
        **kwargs,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in BENCHMARK["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert common.EXACT_METRICS <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", ["hotspot-64", "store-5k"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(capsys, workload, trace):
    code, result, lines = _invoke(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = [
        line.split(" = ")[0] for line in lines
        if " = " in line and not line.startswith("#")
    ]
    assert printed == [m["name"] for m in listed] + ["fail_share"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_expected_fails_the_run(capsys):
    expected = json.loads(common.EXPECTED_JSON.read_text(encoding="utf-8"))
    recorded = dict(shrink=1.0, seconds=0.1, seed=expected["seed"])
    code, result, _ = _invoke(
        capsys, "hotspot-64", 0, expected=copy.deepcopy(expected), **recorded
    )
    assert code == 0 and result["failed"] == 0
    expected["workloads"]["hotspot-64"][0]["flit_hops"] += 1
    code, result, lines = _invoke(
        capsys, "hotspot-64", 0, expected=expected, **recorded
    )
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("FAILED:") for line in lines)


@pytest.mark.parametrize(
    "workload", ["sat-uniform-64", "mcast-ib-64", "store-5k"]
)
def test_traced_self_times_reconcile_with_wall(workload):
    measured = run.measure(workload, 7, 0.2, True, shrink=0.1)
    assert measured.failed == 0, measured.failures
    layers = measured.per_layer()
    assert max(layers["trace.unaccounted_frac"]) <= 0.02
    for sample in measured.traced:
        timed = measured.spans.timed_self_sum(sample["run"])
        assert timed == pytest.approx(sample["wall_s"], rel=0.02)


def test_untraced_numbers_never_come_from_a_traced_repeat():
    measured = run.measure("hotspot-64", 7, 0.2, True, shrink=0.1)
    assert measured.plain and measured.traced
    assert all("layers" not in sample for sample in measured.plain)
    assert all("layers" in sample for sample in measured.traced)
    assert len(measured.end_to_end()["wall_s"]) == len(measured.plain)


@TWO_CPUS
@pytest.mark.parametrize("workload", ["campaign-quick", "dispatch-noop"])
def test_two_worker_workloads_check_their_outputs(capsys, workload):
    code, result, _ = _invoke(capsys, workload, 1, shrink=0.15)
    assert code == 0 and result["correct"]
    assert result["metrics"]["plan.specs"]["value"] > 0
    assert result["metrics"]["farm.worker_failures"]["value"] == 0
    assert result["metrics"]["switch.ticks"]["value"] == 0


def test_unknown_workload_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "no-such-load"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_self_times_count_parallel_children_once():
    log = common.SpanLog(True)
    log.rows = [
        dict(id=0, name="execute", start=0.0, end=10.0, parent=None, run="r"),
        dict(id=1, name="spec", start=1.0, end=5.0, parent=0, run="r"),
        dict(id=2, name="spec", start=2.0, end=7.0, parent=0, run="r"),
        dict(id=3, name="spec", start=8.0, end=9.0, parent=0, run="r"),
    ]
    selfs = log.self_times("r")
    assert selfs == {"execute": 3.0, "spec": 7.0}


# ----------------------------------------------------------------------
# compare.py on synthetic pairs
# ----------------------------------------------------------------------
def _run(workload, values, failed=0, trace=0):
    return {
        "workload": workload,
        "trace": trace,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            name: dict(value=mid, q1=q1, q3=q3, unit="s", n=9)
            for name, (q1, mid, q3) in values.items()
        },
    }


def _verdicts(a, b):
    rows, bad = compare.compare([a], [b], BENCHMARK)
    return {row[1]: row[5] for row in rows}, bad


def test_compare_verdicts():
    base = _run("idle-256", {
        "wall_s": (0.98, 1.0, 1.02), "work_per_s": (98.0, 100.0, 102.0),
    })
    same = _run("idle-256", {
        "wall_s": (1.0, 1.05, 1.1), "work_per_s": (93.0, 95.0, 97.0),
    })
    verdicts, bad = _verdicts(base, same)
    assert verdicts["wall_s"] == verdicts["work_per_s"] == "same"
    assert verdicts["fail_share"] == "same" and not bad

    worse = _run("idle-256", {
        "wall_s": (1.45, 1.5, 1.55), "work_per_s": (64.0, 66.0, 68.0),
    })
    verdicts, bad = _verdicts(base, worse)
    assert verdicts["wall_s"] == verdicts["work_per_s"] == "worse" and bad
    verdicts, bad = _verdicts(worse, base)
    assert verdicts["wall_s"] == verdicts["work_per_s"] == "better"
    assert not bad

    noisy = _run("idle-256", {
        "wall_s": (0.9, 1.5, 2.0), "work_per_s": (50.0, 66.0, 110.0),
    })
    verdicts, bad = _verdicts(base, noisy)
    assert verdicts["wall_s"] == verdicts["work_per_s"] == "unresolved"
    assert not bad


def test_compare_fails_on_more_failures_and_on_count_drift():
    base = _run("idle-256", {"wall_s": (1.0, 1.0, 1.0)})
    failing = _run("idle-256", {"wall_s": (1.0, 1.0, 1.0)}, failed=1)
    verdicts, bad = _verdicts(base, failing)
    assert verdicts["fail_share"] == "worse" and bad

    counted = _run("idle-256", {
        "sim.ticks": (500.0, 500.0, 500.0), "sim.self_s": (0.1, 0.1, 0.1),
    }, trace=1)
    drifted = _run("idle-256", {
        "sim.ticks": (501.0, 501.0, 501.0), "sim.self_s": (0.3, 0.3, 0.3),
    }, trace=1)
    verdicts, bad = _verdicts(counted, drifted)
    assert verdicts["sim.ticks"] == "drift" and verdicts["sim.self_s"] == "-"
    assert bad
    verdicts, bad = _verdicts(counted, counted)
    assert verdicts["sim.ticks"] == "same" and not bad


def test_compare_pools_several_runs(tmp_path):
    runs = [
        _run("idle-256", {"wall_s": (value, value, value)})
        for value in (1.0, 1.02, 0.98, 1.01)
    ]
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"runs": runs}))
    assert len(compare.load_runs(str(path))) == 4
    rows, bad = compare.compare(runs, runs, BENCHMARK)
    assert {row[1]: row[5] for row in rows}["wall_s"] == "same" and not bad
    assert compare.main([str(path), str(path)]) == 0
