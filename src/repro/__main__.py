"""``python -m repro``: the package's command-line front door.

Subcommands:

``demo`` (the default)
    The paper's headline comparison — one multicast under all three
    schemes — on a small system.  The three cases are independent
    simulations, so they run through the same
    :mod:`repro.experiments.parallel` plan machinery as the full
    experiment suite: ``--jobs 3`` fans them out over worker
    processes, ``--jobs 1`` runs them serially; the table is identical
    either way.
``inspect FILE...``
    Summarise observability artifacts (run manifests, metrics/trace
    JSONL) produced by the runner's ``--metrics-out``/``--trace-out``
    flags; see :mod:`repro.obs.inspect`.
``profile [--scenario NAME] [--arch cb|ib|both] [--export-trace FILE]``
    Run one named scenario with the profiling subsystem attached and
    report kernel attribution, worm phase latencies and link
    utilisation; optionally export a Chrome-trace JSON.  See
    :mod:`repro.obs.profile` and ``docs/observability.md``.
``store {stats,verify,gc,export,import}``
    Inspect and maintain a content-addressed result store (the
    ``--store-dir``/``REPRO_STORE_DIR`` journal the experiment runner
    memoizes through); see :mod:`repro.store` and
    ``docs/result-store.md``.

For the full evaluation use ``python -m repro.experiments.runner``.
Unknown subcommands exit with status 2 and the usage summary below.
"""

from __future__ import annotations

import argparse
import sys

USAGE = """\
usage: python -m repro [COMMAND] [OPTIONS]

commands:
  demo     run the headline three-scheme multicast comparison (default)
  inspect  summarise observability JSONL/manifest artifacts
  profile  profile one scenario (kernel, worm phases, Chrome trace)
  store    inspect/maintain the result store (stats, verify, gc, ...)

`python -m repro COMMAND --help` shows each command's options.
Full evaluation: python -m repro.experiments.runner --all
"""

from repro import (
    MulticastScheme,
    SimulationConfig,
    SingleMulticast,
    SwitchArchitecture,
    __version__,
    run_simulation,
)
from repro.experiments.parallel import ExecutionPlan, RunSpec, execute_plan
from repro.metrics.report import Table

#: (label, switch architecture, multicast scheme) of each demo case
DEMO_CASES = [
    ("central buffer + hardware worms",
     SwitchArchitecture.CENTRAL_BUFFER, MulticastScheme.HARDWARE),
    ("input buffers  + hardware worms",
     SwitchArchitecture.INPUT_BUFFER, MulticastScheme.HARDWARE),
    ("central buffer + software binomial",
     SwitchArchitecture.CENTRAL_BUFFER, MulticastScheme.SOFTWARE),
]


def _run_demo_case(architecture, scheme):
    """Worker: one 8-destination multicast; returns the two latencies."""
    result = run_simulation(
        SimulationConfig(
            num_hosts=64, switch_architecture=architecture, seed=1
        ),
        SingleMulticast(
            source=0, degree=8, payload_flits=64, scheme=scheme
        ),
    )
    (operation,) = result.collector.completed_operations()
    return {
        "last": operation.last_latency,
        "average": operation.average_latency,
    }


def main(argv=None) -> int:
    """Dispatch to a subcommand (default: the demo)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and not argv[0].startswith("-"):
        command, rest = argv[0], argv[1:]
        if command == "inspect":
            from repro.obs.inspect import main as inspect_main

            return inspect_main(rest)
        if command == "profile":
            from repro.obs.profile.runner import main as profile_main

            return profile_main(rest)
        if command == "store":
            from repro.store.cli import main as store_main

            return store_main(rest)
        if command == "demo":
            argv = rest
        else:
            print(f"python -m repro: unknown command {command!r}\n",
                  file=sys.stderr)
            print(USAGE, file=sys.stderr, end="")
            return 2
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    parser = argparse.ArgumentParser(
        description="Demo: one multicast under all three schemes."
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the demo cases (default: 1)",
    )
    args = parser.parse_args(argv)

    print(f"repro {__version__} — multidestination worms in switch-based "
          "parallel systems (ISCA 1997 reproduction)")
    print()
    table = Table(
        "Demo: 8-destination multicast on a 64-host BMIN [cycles]",
        ["scheme", "last arrival", "mean arrival"],
    )
    plan = ExecutionPlan(
        "demo",
        [
            RunSpec(
                key=(label,),
                fn=_run_demo_case,
                kwargs=dict(architecture=architecture, scheme=scheme),
            )
            for label, architecture, scheme in DEMO_CASES
        ],
    )
    from repro.store import runtime as store_runtime

    store_dir = store_runtime.store_dir_from_env()
    if store_dir is not None:
        store_runtime.configure(store_runtime.open_session(store_dir))
    try:
        results = execute_plan(plan, jobs=args.jobs)
    finally:
        store_runtime.reset()
    for label, _, _ in DEMO_CASES:
        case = results[(label,)]
        table.add_row(label, case["last"], round(case["average"], 1))
    table.write()
    print()
    print("Full evaluation:   python -m repro.experiments.runner --all")
    print("                   (add --jobs N to parallelize, --chart/--csv "
          "for extra output)")
    print("Telemetry:         python -m repro.experiments.runner "
          "--experiment e1 --metrics-out m.jsonl")
    print("                   python -m repro inspect m.jsonl")
    print("Performance:       python3 benchmarks/ledger/run.py "
          "--workload idle-256")
    print("Profiling:         python -m repro profile --arch cb "
          "--export-trace trace.json")
    print("Paper claims:      pytest tests/experiments/test_golden.py")
    print("Examples:          python examples/quickstart.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
