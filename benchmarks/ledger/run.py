"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--out FILE]
    python3 benchmarks/ledger/run.py [--runs N] [--trace 0|1] [--out FILE]
    python3 benchmarks/ledger/run.py --record

With ``--workload`` this process *is* the fresh interpreter of that
workload: it repeats the workload for ``--seconds``, checks every
output, prints each metric by name with its unit and ends with one JSON
line.  Without it, every workload of ``BENCHMARK.json`` is run in a
child of its own and the results are tabulated (and written to
``--out`` for ``compare.py``).  ``--record`` rewrites ``expected.json``.

Exit codes: 0 all checks passed; 1 a check failed; 2 bad arguments;
3 the simulator's source is not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

import common  # noqa: E402
from common import SpanLog, median, quartiles  # noqa: E402

#: workloads that time two worker processes side by side
NEED_TWO_CPUS = {"campaign-quick", "dispatch-noop"}

#: workloads whose timed section is mostly waiting (poll sleeps, process
#: starts, pipe round trips) and so does not follow the machine's speed:
#: scaling it took the spread over ten runs from 0.025 to 0.15.  Their
#: ``setup_s`` is computation and is scaled like everyone's.
UNSCALED = {"dispatch-noop"}


def _import_simulator() -> float:
    """Put ``src`` on the path (and this directory on ``PYTHONPATH``,
    for the fleet workers that unpickle ``workers.noop_summary``) and
    import the simulator; returns the seconds the import took."""
    if str(common.SRC_DIR) not in sys.path:
        sys.path.insert(0, str(common.SRC_DIR))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if str(LEDGER_DIR) not in inherited:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(LEDGER_DIR)] + inherited)
        )
    # store directories and every other temporary file stay inside the
    # checkout
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(common.OUT_DIR)
    tempfile.tempdir = str(common.OUT_DIR)
    began = perf_counter()
    import campaigns  # noqa: F401
    import micro  # noqa: F401
    import simloads  # noqa: F401

    return perf_counter() - began


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak / 1024.0


def _model_metrics(digest: Dict[str, Any]) -> Dict[str, float]:
    """Simulated-time results; a simulator-only change never moves them."""
    summary = digest["summary"]
    return {
        "model.sim_cycles": digest["cycles"],
        "model.deliveries": sum(
            value for key, value in summary.items()
            if key.endswith("_deliveries")
        ),
        "model.unicast_latency_mean_cycles": summary["unicast_latency_mean"],
        "model.op_last_latency_mean_cycles": summary.get(
            "op_last_latency_mean", 0.0
        ),
        "model.completed": summary["completed"],
    }


class Measurement:
    """Everything one ``--workload`` invocation measured and checked."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.plain: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.extra: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.spans = SpanLog(trace)
        #: seconds per calibration unit, read between the repeats
        self.speeds: List[float] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)

    def wall(self, sample: Dict[str, Any]) -> float:
        """A repeat's timed section at the reference machine speed."""
        if self.workload in UNSCALED:
            return sample["wall_s"]
        return sample["wall_s"] * sample["scale"]

    # -- end-to-end, from the untraced repeats only ---------------------
    def end_to_end(self) -> Dict[str, List[float]]:
        """``wall_s`` is taken at the workload's nominal work: a traffic
        realisation's flit-hops vary by up to 11% (one sigma) with the
        draw of the Poisson generators, and so would the seconds."""
        rates = [s["work"] / self.wall(s) for s in self.plain]
        return {
            "wall_s": [
                s.get("nominal_work", s["work"]) / rate
                for s, rate in zip(self.plain, rates)
            ],
            "work_per_s": rates,
            "setup_s": [s["setup_s"] * s["scale"] for s in self.plain],
            "peak_rss_mb": [_peak_rss_mb()],
        }

    # -- per layer, from the traced repeats only ------------------------
    def per_layer(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for sample in self.traced:
            for name, value in sample["layers"].items():
                out.setdefault(name, []).append(float(value))
            wall = sample["wall_s"]  # layer times are not rescaled
            accounted = sample["layers"].get("self_sum_s")
            if accounted is None:
                accounted = self.spans.timed_self_sum(sample["run"])
            out.setdefault("trace.wall_s", []).append(wall)
            out.setdefault("trace.unaccounted_frac", []).append(
                abs(accounted - wall) / wall
            )
        for name, value in self.extra.items():
            out[name] = [value]
        if self.traced:
            out["trace.overhead_frac"] = [
                median([self.wall(s) for s in self.traced])
                / median([self.wall(s) for s in self.plain])
                - 1.0
            ]
        return out


def _check_digests(
    measured: Measurement,
    samples: Sequence[Dict[str, Any]],
    recorded: Optional[Sequence[Dict[str, Any]]],
) -> None:
    """Each simulation repeat is one operation: it fails unless it ran
    to completion and reproduced the digest recorded for its traffic
    realisation — or, for a seed that was never recorded, the digest of
    the first repeat that ran the same realisation (the warm-up shares
    the first timed repeat's, a traced repeat its untraced twin's)."""
    first_seen: Dict[int, Dict[str, Any]] = {}
    for sample in samples:
        measured.attempted += 1
        digest, variant = sample["digest"], sample["variant"]
        if recorded is not None:
            reference, origin = recorded[variant], "expected.json"
        else:
            reference = first_seen.setdefault(variant, digest)
            origin = "an earlier repeat"
        if not digest["summary"]["completed"]:
            measured.fail(f"realisation {variant}: cycle budget ran out")
        elif digest != reference:
            measured.fail(
                f"realisation {variant}: digest differs from {origin}"
            )


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    shrink: float = 1.0,
    expected: Optional[Dict[str, Any]] = None,
) -> Measurement:
    """Repeat one workload for ``seconds`` and check every output.

    ``shrink`` scales the workload's size (tests pass a small one); the
    recorded digests only apply at full size.  ``expected`` replaces
    the contents of ``expected.json``.
    """
    import_s = _import_simulator()
    import campaigns
    import simloads

    measured = Measurement(workload, seed, trace)
    spans = measured.spans
    off = SpanLog(False)
    load = simloads.SIM_LOADS.get(workload)

    def repeat(log: SpanLog, variant: int) -> Dict[str, Any]:
        if load is None:
            return campaigns.CAMPAIGN_LOADS[workload](seed, shrink, log)
        # each repeat another traffic realisation, so that a run's
        # medians do not hang on one draw of the generators
        sample = simloads.run_repeat(
            load, simloads.simulator_seed(seed, variant), shrink, log
        )
        sample["variant"] = variant
        return sample

    def timed_repeat(log: SpanLog, variant: int) -> Dict[str, Any]:
        """One repeat, with the factor that takes its times to the
        reference machine speed: the reference over the speed measured
        just before and just after it."""
        sample = repeat(log, variant)
        measured.speeds.append(common.machine_speed())
        sample["scale"] = (
            2 * common.REFERENCE_UNIT_S / sum(measured.speeds[-2:])
        )
        return sample

    warm_up = repeat(off, 0)  # untimed: imports, caches and pools settle
    measured.speeds.append(common.machine_speed())
    deadline = perf_counter() + seconds
    with spans.span(workload):
        while True:
            variant = len(measured.plain) % common.SEED_CYCLE
            measured.plain.append(timed_repeat(off, variant))
            if trace:
                spans.run = f"{workload}/{seed}/{len(measured.traced)}"
                with spans.span("repeat"):
                    sample = timed_repeat(spans, variant)
                sample["run"] = spans.run
                measured.traced.append(sample)
            if perf_counter() >= deadline:
                break
    samples = [warm_up] + measured.plain + measured.traced

    if load is not None:
        if expected is None:
            expected = json.loads(
                common.EXPECTED_JSON.read_text(encoding="utf-8")
            )
        recorded = None
        if shrink == 1.0 and expected["seed"] == seed:
            recorded = expected["workloads"][workload]
        _check_digests(measured, samples, recorded)
        if workload == "mcast-ib-64":
            # the paper's ordering: the same stream completes later on
            # input-buffer switches than on the central buffer
            measured.attempted += 1
            twin = simloads.run_repeat(
                simloads.SIM_LOADS["mcast-cb-64"],
                simloads.simulator_seed(seed, 0),
                shrink,
                off,
            )
            key = "op_last_latency_mean"
            ours = warm_up["digest"]["summary"][key]
            theirs = twin["digest"]["summary"][key]
            if not ours > theirs:
                measured.fail(
                    f"op last-arrival latency {ours:.1f} on IB is not "
                    f"above {theirs:.1f} on CB"
                )
    else:
        for sample in samples:
            measured.attempted += sample["attempted"]
            problems = sample["failures"]
            if problems:
                measured.fail(
                    "; ".join(problems), sample.get("failed", len(problems))
                )

    if trace:
        measured.extra["proc.import_s"] = import_s
        _trace_extras(measured, warm_up, load, shrink)
    return measured


def _trace_extras(
    measured: Measurement, warm_up: Dict[str, Any], load: Any, shrink: float
) -> None:
    """What a traced run adds after its repeats: simulated results, the
    micro-benchmarks of the layers this workload leans on, and the
    check that the traced self times add up to the traced wall."""
    import campaigns
    import micro

    workload, seed, extra = measured.workload, measured.seed, measured.extra
    if load is not None:
        extra.update(_model_metrics(warm_up["digest"]))
        extra["sim.wake_ns"] = micro.sim_wake_ns()
        if workload.startswith("mcast-"):
            extra["flits.spanq_ns_per_flit"] = micro.spanq_ns_per_flit()
            extra["flits.header_codec_us"] = micro.header_codec_us(seed)
        if workload == "hotspot-64":
            extra["obs.metrics_on_overhead_frac"] = _metrics_on_overhead(
                load, seed, shrink, measured.plain[-1]
            )
    else:
        extra.update(
            campaigns.spec_wall_stats(
                [
                    wall for sample in measured.traced
                    for wall in sample.get("spec_walls", ())
                ]
            )
        )
        specs = campaigns.noop_plan(seed, 1_000).specs
        value = specs[0].execute()
        if workload == "store-5k":
            extra.update(micro.store_micro(specs, value))
        if workload == "dispatch-noop":
            extra.update(micro.farm_micro(specs, value))
    unaccounted = median(measured.per_layer()["trace.unaccounted_frac"])
    measured.attempted += 1
    if unaccounted > 0.02:
        measured.fail(
            f"traced self times miss the traced wall by {unaccounted:.1%}"
        )


def _metrics_on_overhead(
    load: Any, seed: int, shrink: float, twin: Dict[str, Any]
) -> float:
    """``run_simulation`` once with telemetry recording, over the
    untraced build + run of the same realisation (``twin``), minus one.
    Neither side is rescaled: they ran within seconds of each other."""
    from repro import run_simulation
    from repro.obs import runtime as obs_runtime

    import simloads

    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as directory:
        sink = str(Path(directory) / "metrics.jsonl")
        with obs_runtime.enabled(metrics_out=sink):
            began = perf_counter()
            run_simulation(
                load.config(simloads.simulator_seed(seed, twin["variant"])),
                load.traffic(shrink),
            )
            recording = perf_counter() - began
    return recording / (twin["setup_s"] + twin["wall_s"]) - 1.0


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report(measured: Measurement, benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """The detailed result: every metric ``BENCHMARK.json`` lists for
    this kind of run, with quartiles and sample count."""
    if measured.trace:
        listed, values = benchmark["per_layer"], measured.per_layer()
    else:
        listed, values = benchmark["end_to_end"], measured.end_to_end()
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in listed:
        # a layer the workload does not exercise (or does not measure)
        # reads 0
        sample = values.get(metric["name"]) or [0.0]
        if metric["unit"] == "count":
            # counts are those of the first repeat (realisation 0), so
            # they repeat exactly at a fixed seed; times are medians
            sample = sample[:1]
        q1, mid, q3 = quartiles(sample)
        metrics[metric["name"]] = {
            "value": mid,
            "unit": metric["unit"],
            "q1": q1,
            "q3": q3,
            "n": len(sample),
        }
    return {
        "workload": measured.workload,
        "seed": measured.seed,
        "trace": int(measured.trace),
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failures": measured.failures,
        "repeats": len(measured.plain),
        "nproc": _cpus(),
        "loadavg_1min": os.getloadavg()[0],
        "unit_ms": median(measured.speeds) * 1e3,
        "wall_raw_s": median([s["wall_s"] for s in measured.plain]),
        "metrics": metrics,
    }


def print_metrics(detail: Dict[str, Any]) -> None:
    print(
        f"# {detail['workload']} seed={detail['seed']} "
        f"trace={detail['trace']} repeats={detail['repeats']} "
        f"nproc={detail['nproc']} loadavg={detail['loadavg_1min']:.2f}"
    )
    print(
        f"# calibration unit took {detail['unit_ms']:.3f} ms (reference "
        f"{common.REFERENCE_UNIT_S * 1e3:.1f} ms); times are scaled to "
        f"the reference, the unscaled timed section took "
        f"{detail['wall_raw_s']:.6g} s"
    )
    for name, metric in detail["metrics"].items():
        spread = (
            f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
            f"n={metric['n']})"
            if metric["n"] > 1
            else ""
        )
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{spread}")
    share = detail["failed"] / max(1, detail["attempted"])
    print(
        f"fail_share = {share:.6g} "
        f"({detail['failed']} of {detail['attempted']} operations)"
    )
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")


def result_line(detail: Dict[str, Any]) -> str:
    """The one JSON line the driver reads."""
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in detail["metrics"].items()
            },
        }
    )


def run_one(args: argparse.Namespace, shrink: float, expected: Any) -> int:
    if args.workload in NEED_TWO_CPUS and _cpus() < 2:
        print(
            f"{args.workload} times two workers side by side and this "
            f"machine offers {_cpus()} CPU; refusing to change the "
            "worker count silently",
            file=sys.stderr,
        )
        return 1
    measured = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        shrink=shrink, expected=expected,
    )
    detail = report(measured, common.load_benchmark())
    if measured.trace:
        detail["spans"] = measured.spans.rows
        if not args.out:
            measured.spans.write(
                common.OUT_DIR / f"spans-{args.workload}.json"
            )
    if args.out:
        Path(args.out).write_text(
            json.dumps(detail, indent=1) + "\n", encoding="utf-8"
        )
    print_metrics(detail)
    print(result_line(detail), flush=True)
    return 0 if detail["correct"] else 1


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Each workload in a fresh child interpreter, ``--runs`` times with
    consecutive seeds; one row per run and metric."""
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    print(f"# nproc={_cpus()} loadavg={os.getloadavg()[0]:.2f}")
    details: List[Dict[str, Any]] = []
    status = 0
    for run in range(args.runs):
        for name in names:
            with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as scratch:
                out = Path(scratch) / "result.json"
                child = subprocess.run(
                    [
                        sys.executable, str(Path(__file__).resolve()),
                        "--workload", name,
                        "--seed", str(args.seed + run),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--out", str(out),
                    ],
                    stdout=subprocess.DEVNULL,
                )
                if child.returncode != 0:
                    status = 1
                if not out.exists():
                    print(f"{name}: exited {child.returncode}, no result")
                    continue
                detail = json.loads(out.read_text(encoding="utf-8"))
            details.append(detail)
            print_metrics(detail)
            print()
    if args.out:
        Path(args.out).write_text(
            json.dumps({"runs": details}, indent=1) + "\n", encoding="utf-8"
        )
    return status


def record() -> int:
    """Rewrite ``expected.json`` at seed 1, after checking on the same
    configurations that the production flavour (active-set kernel,
    packed flits) equals the reference flavour (dense kernel, object
    flits).  Plain runs only compare against the file: running the
    reference beside every repeat would cost several times the run."""
    _import_simulator()
    import simloads

    off = SpanLog(False)
    workloads: Dict[str, Any] = {}
    for name, load in simloads.SIM_LOADS.items():
        digests = workloads[name] = []
        for variant in range(common.SEED_CYCLE):
            seed = simloads.simulator_seed(1, variant)
            production, reference = (
                simloads.run_repeat(load, seed, 1.0, off, reference=flavour)
                for flavour in (False, True)
            )
            if production["digest"] != reference["digest"]:
                print(
                    f"{name}, realisation {variant}: production and "
                    "reference flavours disagree; nothing recorded",
                    file=sys.stderr,
                )
                return 1
            digests.append(production["digest"])
        print(f"{name}: {len(digests)} realisations, flavours agree")
    common.EXPECTED_JSON.write_text(
        json.dumps({"seed": 1, "workloads": workloads}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


def main(
    argv: Optional[Sequence[str]] = None,
    shrink: float = 1.0,
    expected: Optional[Dict[str, Any]] = None,
) -> int:
    benchmark = common.load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (common.SRC_DIR / "repro").is_dir():
        print(
            f"no simulator source under {common.SRC_DIR}", file=sys.stderr
        )
        return 3
    if args.record:
        return record()
    if args.workload:
        return run_one(args, shrink, expected)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
