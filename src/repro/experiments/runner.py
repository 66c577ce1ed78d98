"""Command-line experiment runner.

Run one experiment (or all of them) and print the paper-style tables::

    python -m repro.experiments.runner --experiment e1 --scale quick
    python -m repro.experiments.runner --all --scale paper --jobs 8

``quick`` scale finishes in seconds per experiment; ``paper`` scale runs
the full sweeps recorded in EXPERIMENTS.md (minutes to hours).

``--jobs N`` fans the (seed x sweep-point x scheme) grid of each
experiment out over N worker processes (default: one per CPU).  Results
are bit-identical to ``--jobs 1``: per-run values depend only on the
config seed, and each experiment's reduce step folds them in declared
grid order, never in completion order.  Progress lines go to stderr so
table output stays clean.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict

from repro import experiments
from repro.experiments.common import PAPER, QUICK, Experiment
from repro.experiments.parallel import StderrProgress, default_jobs
from repro.farm import runtime as farm_runtime
from repro.obs import runtime as obs_runtime
from repro.obs.manifest import RunManifest
from repro.obs.runtime import ObsOptions
from repro.store import runtime as store_runtime

#: every experiment record the package exports, by id
EXPERIMENTS: Dict[str, Experiment] = {
    entry.id: entry
    for entry in vars(experiments).values()
    if isinstance(entry, Experiment)
}


def main(argv=None) -> int:
    """Entry point for ``python -m repro.experiments.runner``."""
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS),
        help="one experiment id (see DESIGN.md)",
    )
    group.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="quick: seconds per experiment; paper: full sweeps",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per experiment grid (default: CPU count; "
        "1 = serial; output is identical either way)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a per-run progress line to stderr",
    )
    parser.add_argument(
        "--csv", action="store_true", help="also print CSV after each table"
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also print an ASCII chart for sweep experiments",
    )
    obs_group = parser.add_argument_group(
        "observability (off by default; tables are identical either way)"
    )
    obs_group.add_argument(
        "--metrics-out", metavar="FILE",
        help="append sampled metrics and run headers as JSONL; a run "
        "manifest is written next to it",
    )
    obs_group.add_argument(
        "--trace-out", metavar="FILE",
        help="stream per-flit trace events as JSONL (large!)",
    )
    obs_group.add_argument(
        "--sample-every", type=int, default=0, metavar="CYCLES",
        help="gauge sampling period in cycles "
        f"(default {obs_runtime.DEFAULT_SAMPLE_EVERY} when recording)",
    )
    obs_group.add_argument(
        "--profile-out", metavar="FILE",
        help="append per-run profiling digests (kernel attribution, "
        "worm phase latencies, link heatmap) as JSONL",
    )
    store_group = parser.add_argument_group(
        "result store (tables are bit-identical warm or cold)"
    )
    store_group.add_argument(
        "--store-dir", metavar="DIR",
        help="journal run results under DIR and answer repeated specs "
        f"from it (default: ${store_runtime.ENV_STORE_DIR} when set)",
    )
    store_group.add_argument(
        "--no-store", action="store_true",
        help=f"ignore ${store_runtime.ENV_STORE_DIR} and run without "
        "the result store",
    )
    store_group.add_argument(
        "--store-refresh", action="store_true",
        help="re-execute every spec and journal fresh results, "
        "shadowing stale entries",
    )
    farm_group = parser.add_argument_group(
        "run farm (tables are bit-identical on any backend)"
    )
    farm_group.add_argument(
        "--farm",
        choices=farm_runtime.FARM_KINDS,
        help="execute each experiment grid as a sharded campaign: "
        "'local' (multiprocessing workers), 'fleet' (independent "
        "worker subprocesses), 'serial' (one in-process worker)",
    )
    farm_group.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker/shard count for --farm (default: the --jobs "
        "value, capped at the grid size)",
    )
    farm_group.add_argument(
        "--farm-manifest", metavar="FILE",
        help="write the last campaign's merged manifest (per-worker "
        "provenance included) as JSON",
    )
    args = parser.parse_args(argv)

    scale = QUICK if args.scale == "quick" else PAPER
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    names = sorted(EXPERIMENTS) if args.all else [args.experiment]

    recording = bool(
        args.metrics_out or args.trace_out or args.profile_out
    )
    if args.sample_every and not recording:
        parser.error(
            "--sample-every needs --metrics-out, --trace-out or "
            "--profile-out"
        )
    options = None
    if recording:
        options = ObsOptions(
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            sample_every=max(0, args.sample_every),
            profile_out=args.profile_out,
        )
        obs_runtime.configure(options)

    if args.no_store and (args.store_dir or args.store_refresh):
        parser.error(
            "--no-store conflicts with --store-dir/--store-refresh"
        )
    store_dir = None
    if not args.no_store:
        store_dir = (
            Path(args.store_dir)
            if args.store_dir
            else store_runtime.store_dir_from_env()
        )
    if args.store_refresh and store_dir is None:
        parser.error(
            "--store-refresh needs --store-dir or "
            f"${store_runtime.ENV_STORE_DIR}"
        )
    if store_dir is not None:
        store_runtime.configure(
            store_runtime.open_session(
                store_dir, refresh=args.store_refresh
            )
        )

    if args.farm is None and (
        args.shards is not None or args.farm_manifest
    ):
        parser.error("--shards/--farm-manifest need --farm")
    # parallel lanes each plan gets: pool processes, or farm shards
    lanes = jobs if args.shards is None else max(1, args.shards)
    if args.farm is not None:
        farm_runtime.configure(
            farm_runtime.open_farm(args.farm, shards=lanes)
        )

    campaign_started = time.perf_counter()
    try:
        for name in names:
            progress = StderrProgress(name) if args.progress else None
            experiment = EXPERIMENTS[name]
            started = time.perf_counter()
            result = experiment(scale, jobs=jobs, progress=progress)
            elapsed = time.perf_counter() - started
            print(result.render())
            if args.farm is not None:
                detail = f"farm={args.farm}, shards={lanes}"
            else:
                detail = f"jobs={jobs}"
            print(
                f"[{name} finished in {elapsed:.1f}s at scale={scale.name}, "
                f"{detail}]"
            )
            if progress is not None and progress.outcomes:
                print(progress.summary(lanes).render(), file=sys.stderr)
            if args.chart and experiment.chart:
                print()
                print(result.chart(*experiment.chart))
            if args.csv:
                print(result.table.to_csv())
            print()
        farm = farm_runtime.active_farm()
        if (
            args.farm_manifest
            and farm is not None
            and farm.last_result is not None
        ):
            farm.last_result.manifest(
                experiments=names, scale=scale.name
            ).write(args.farm_manifest)
            print(
                f"[campaign manifest: {args.farm_manifest}]",
                file=sys.stderr,
            )
    finally:
        obs_runtime.reset()
        store_runtime.reset()
        farm_runtime.reset()

    if options is not None:
        anchor = args.metrics_out or args.trace_out or args.profile_out
        manifest_path = str(Path(anchor).with_suffix(".manifest.json"))
        RunManifest.collect(
            wall_seconds=round(time.perf_counter() - campaign_started, 3),
            jobs=jobs,
            experiments=names,
            scale=scale.name,
            metrics_out=options.metrics_out,
            trace_out=options.trace_out,
            profile_out=options.profile_out,
            sample_every=options.effective_sample_every,
        ).write(manifest_path)
        print(f"[run manifest: {manifest_path}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
