"""``python -m repro inspect``: summarise manifests and JSONL files.

Reads any mix of run manifests (``*.manifest.json``), metrics JSONL,
trace JSONL and profiling-digest JSONL and prints a human-readable
summary: per-run gauge statistics, an ASCII chart of central-buffer
occupancy over time (via :mod:`repro.metrics.ascii_chart`), trace event
counts, kernel/phase profiling sections with a link-utilisation
heatmap, worm lifecycle digests and manifest provenance.  A JSONL file
is streamed line by line, never read whole.  With ``--check`` it
validates every line against the schemas in :mod:`repro.obs.sinks` and
exits non-zero on any invalid record — the CI smoke job runs exactly
that.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.ascii_chart import render_chart
from repro.metrics.report import Table
from repro.obs.manifest import RunManifest
from repro.obs.sinks import (
    SCHEMA_LIFECYCLE,
    SCHEMA_METRICS,
    SCHEMA_PROFILE,
    SCHEMA_RUN,
    SCHEMA_TRACE,
    iter_jsonl,
    validate_file,
)

#: gauge charted over time when present in a metrics file
CHART_GAUGE = "cb.occupancy_chunks"


def _is_manifest_file(path: str) -> bool:
    """True when the file opens as a :meth:`RunManifest.write` file.

    A manifest is one indented JSON object, so its first line is a lone
    ``{``; a JSONL file's first line is a whole record.  Reading one
    line keeps a large trace file from being loaded before it streams.
    """
    with open(path, encoding="utf-8") as handle:
        return handle.readline().strip() == "{"


def _summarise_manifest(path: str) -> str:
    manifest = RunManifest.load(path)
    lines = [f"{path}: run manifest ({manifest.schema})"]
    table = Table("provenance", ["field", "value"])
    table.add_row("created at", manifest.created_at)
    table.add_row("package", manifest.package_version)
    table.add_row("python", manifest.python_version)
    table.add_row("platform", manifest.platform)
    table.add_row("git SHA", manifest.git_sha)
    if manifest.wall_seconds is not None:
        table.add_row("wall seconds", round(manifest.wall_seconds, 3))
    if manifest.peak_rss_bytes is not None:
        table.add_row(
            "peak RSS", f"{manifest.peak_rss_bytes / 2**20:.1f} MiB"
        )
    if manifest.jobs is not None:
        table.add_row("jobs", manifest.jobs)
    for key, value in sorted(manifest.extras.items()):
        table.add_row(key, _compact(value))
    lines.append(table.render())
    return "\n".join(lines)


def _compact(value: Any, limit: int = 60) -> str:
    text = json.dumps(value, default=repr) if not isinstance(
        value, str
    ) else value
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _summarise_jsonl(path: str, chart: bool) -> str:
    runs: Dict[str, Dict[str, Any]] = {}
    trace_counts: Dict[str, int] = {}
    profiles: Dict[str, Dict[str, Any]] = {}
    lifecycles: List[Dict[str, Any]] = []
    trace_lines = 0
    bad_lines = 0
    for _, obj in iter_jsonl(path):
        if isinstance(obj, Exception) or not isinstance(obj, dict):
            bad_lines += 1
            continue
        schema = obj.get("schema")
        if schema == SCHEMA_RUN:
            entry = runs.setdefault(
                str(obj.get("run")), {"points": [], "meta": {}}
            )
            if obj.get("event") == "start":
                entry["meta"]["config"] = obj.get("config", "")
                entry["meta"]["seed"] = obj.get("seed")
            else:
                entry["meta"]["cycles"] = obj.get("cycles")
                entry["meta"]["wall_seconds"] = obj.get("wall_seconds")
                entry["meta"]["counters"] = obj.get("counters", {})
        elif schema == SCHEMA_METRICS:
            entry = runs.setdefault(
                str(obj.get("run")), {"points": [], "meta": {}}
            )
            entry["points"].append((obj.get("cycle", 0), obj.get("values", {})))
        elif schema == SCHEMA_TRACE:
            trace_lines += 1
            event = str(obj.get("event"))
            trace_counts[event] = trace_counts.get(event, 0) + 1
        elif schema == SCHEMA_PROFILE:
            sections = profiles.setdefault(str(obj.get("run")), {})
            sections[str(obj.get("section"))] = obj.get("data", {})
        elif schema == SCHEMA_LIFECYCLE:
            lifecycles.append(obj)
        else:
            bad_lines += 1

    lines = [f"{path}:"]
    if runs:
        lines.append(
            f"  {len(runs)} run(s), "
            f"{sum(len(r['points']) for r in runs.values())} metric sample(s)"
        )
        for run_id, entry in sorted(runs.items()):
            lines.append(_summarise_run(run_id, entry, chart))
    if trace_lines:
        table = Table(
            f"trace events ({trace_lines} records)", ["event", "count"]
        )
        for event, count in sorted(
            trace_counts.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            table.add_row(event, count)
        lines.append(table.render())
    for run_id, sections in sorted(profiles.items()):
        lines.append(_summarise_profile(run_id, sections))
    if lifecycles:
        lines.append(_summarise_lifecycles(lifecycles))
    if bad_lines:
        lines.append(f"  WARNING: {bad_lines} unrecognised line(s)")
    if not runs and not trace_lines and not profiles and not lifecycles:
        lines.append("  no recognised records")
    return "\n".join(lines)


def _summarise_profile(run_id: str, sections: Dict[str, Any]) -> str:
    """Render one run's profiling sections (kernel, phases, heatmap)."""
    from repro.obs.profile.heatmap import render_heatmap

    lines = [f"  profile run {run_id}:"]
    run_info = sections.get("run", {})
    if run_info:
        bits = [
            f"{key}={run_info[key]}"
            for key in ("arch", "scenario", "cycles")
            if run_info.get(key) not in (None, "")
        ]
        if bits:
            lines.append("    " + ", ".join(bits))
    kernel = sections.get("kernel")
    if kernel:
        lines.append(
            f"    kernel: {kernel.get('steps', 0)} stepped cycles, "
            f"{kernel.get('cycles_skipped', 0)} fast-forwarded in "
            f"{kernel.get('fast_forwards', 0)} jumps"
        )
        table = Table("ticks by component class", ["class", "ticks"])
        for name, ticks in kernel.get("ticks_by_class", {}).items():
            table.add_row(name, ticks)
        lines.append(
            "\n".join("    " + row for row in table.render().split("\n"))
        )
    phases = sections.get("phases")
    if phases:
        table = Table(
            f"worm phases ({phases.get('packets', 0)} worms, "
            f"{phases.get('incomplete', 0)} in flight)",
            ["phase", "worms", "mean cycles"],
        )
        for name in ("setup", "blocked", "transfer"):
            cell = phases.get(name) or {}
            table.add_row(name, cell.get("count", 0), cell.get("mean", 0))
        lines.append(
            "\n".join("    " + row for row in table.render().split("\n"))
        )
    heatmap = sections.get("heatmap")
    if heatmap:
        rendered = render_heatmap(heatmap)
        lines.append(
            "\n".join("    " + row for row in rendered.split("\n"))
        )
    return "\n".join(lines)


def _summarise_lifecycles(records: List[Dict[str, Any]]) -> str:
    """One aggregate line plus the slowest worms."""
    complete = [r for r in records if isinstance(r.get("total"), int)]
    lines = [
        f"  {len(records)} worm lifecycle(s), {len(complete)} complete"
    ]
    slowest = sorted(
        complete, key=lambda r: r.get("total", 0), reverse=True
    )[:5]
    if slowest:
        table = Table(
            "slowest worms",
            ["packet", "setup", "blocked", "transfer", "total", "hops"],
        )
        for record in slowest:
            table.add_row(
                record.get("packet"),
                record.get("setup"),
                record.get("blocked"),
                record.get("transfer"),
                record.get("total"),
                record.get("hop_count"),
            )
        lines.append(
            "\n".join("  " + row for row in table.render().split("\n"))
        )
    return "\n".join(lines)


def _summarise_run(run_id: str, entry: Dict[str, Any], chart: bool) -> str:
    meta = entry["meta"]
    points: List[Tuple[int, Dict[str, float]]] = sorted(entry["points"])
    lines: List[str] = []
    header = f"run {run_id}"
    if meta.get("seed") is not None:
        header += f" (seed={meta['seed']})"
    if meta.get("cycles") is not None:
        header += f", {meta['cycles']} cycles"
    if meta.get("wall_seconds") is not None:
        header += f", {meta['wall_seconds']}s wall"
    lines.append(header)
    if meta.get("config"):
        lines.append(f"  {meta['config']}")
    if points:
        gauges: Dict[str, List[float]] = {}
        for _, values in points:
            for name, value in values.items():
                gauges.setdefault(name, []).append(float(value))
        table = Table(
            f"sampled gauges over cycles "
            f"{points[0][0]}..{points[-1][0]} ({len(points)} samples)",
            ["gauge", "min", "mean", "max", "last"],
        )
        for name, values in sorted(gauges.items()):
            table.add_row(
                name,
                round(min(values), 3),
                round(sum(values) / len(values), 3),
                round(max(values), 3),
                round(values[-1], 3),
            )
        lines.append(table.render())
        series = [
            (float(cycle), float(values[CHART_GAUGE]))
            for cycle, values in points
            if CHART_GAUGE in values
        ]
        if chart and len(series) >= 2 and any(y for _, y in series):
            lines.append(
                render_chart(
                    {run_id: series},
                    title=f"{CHART_GAUGE} over time",
                    x_label="cycle",
                    y_label="chunks",
                )
            )
    counters = meta.get("counters") or {}
    if counters:
        table = Table("final counters", ["counter", "value"])
        for name, value in sorted(counters.items()):
            table.add_row(name, value)
        lines.append(table.render())
    return "\n".join("  " + line for block in lines for line in block.split("\n"))


def _check(paths: List[str]) -> int:
    """Validate every file; print a verdict per file; 0 iff all valid."""
    failures = 0
    for path in paths:
        if _is_manifest_file(path):
            try:
                RunManifest.load(path)
            except (ValueError, KeyError) as error:
                print(f"{path}: INVALID manifest ({error})")
                failures += 1
            else:
                print(f"{path}: OK (manifest)")
            continue
        valid, errors = validate_file(path)
        if errors:
            failures += 1
            print(f"{path}: INVALID ({valid} valid line(s))")
            for error in errors[:10]:
                print(f"  {error}")
            if len(errors) > 10:
                print(f"  ... and {len(errors) - 10} more")
        else:
            print(f"{path}: OK ({valid} line(s))")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro inspect``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro inspect",
        description="Summarise observability manifests and JSONL files.",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="FILE",
        help="manifest .json, metrics .jsonl or trace .jsonl files",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate schemas only; exit 1 on any invalid record",
    )
    parser.add_argument(
        "--no-chart", action="store_true",
        help="skip the occupancy-over-time ASCII chart",
    )
    args = parser.parse_args(argv)

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"{path}: no such file", file=sys.stderr)
        return 2
    if args.check:
        return _check(args.paths)
    for path in args.paths:
        if _is_manifest_file(path):
            print(_summarise_manifest(path))
        else:
            print(_summarise_jsonl(path, chart=not args.no_chart))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
