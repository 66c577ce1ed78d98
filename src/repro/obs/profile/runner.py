"""``python -m repro profile``: run one scenario fully instrumented.

Drives a named scenario (:mod:`repro.traffic.scenarios`; default:
``saturation-hotspot``, the tree-saturation case where contention is
most visible) through the production flavour with every profiling
instrument attached — kernel profiler, span profiler, worm lifecycle
tracer, metrics registry — then prints the kernel attribution table,
the per-phase worm latency breakdown and the link-utilisation heatmap,
and optionally exports a merged
Chrome-trace JSON (``--export-trace``) and a schema-tagged JSONL digest
(``--out``).

Profiling runs the same simulation code the goldens run: the
instruments observe through the kernel's profiler hook, the tracer
call sites and link counters, never by changing scheduling decisions —
so a profiled run's :meth:`~repro.network.simulation.SimulationResult.summary`
is bit-identical to an unprofiled one (asserted by
``tests/obs/profile/test_differential.py``).

:class:`Instruments` and :func:`write_digest` are the one place the
three instruments are wired and their digest is written; the
``--profile-out`` path of :mod:`repro.obs.harness` goes through them
too.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.schemes import SwitchArchitecture
from repro.network.builder import Network, build_network
from repro.network.config import SimulationConfig, describe
from repro.network.simulation import run_workload
from repro.obs.profile.chrome_trace import build_trace, write_trace
from repro.obs.profile.heatmap import link_heatmap, render_heatmap
from repro.obs.profile.kernel_profiler import KernelProfiler, SpanProfiler
from repro.obs.profile.lifecycle import PacketLife, WormLifecycleTracer
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import SCHEMA_LIFECYCLE, SCHEMA_PROFILE, JsonlWriter
from repro.obs.runtime import next_run_id
from repro.sim.trace import Tracer
from repro.traffic.base import Workload
from repro.traffic.scenarios import SCENARIOS, Scenario

#: architecture spellings accepted by ``--arch``
ARCH_CHOICES = {
    "cb": SwitchArchitecture.CENTRAL_BUFFER,
    "ib": SwitchArchitecture.INPUT_BUFFER,
}


@dataclass
class ProfileReport:
    """Everything one instrumented run produced."""

    arch: str
    scenario: str
    cycles: int
    summary: Dict[str, float]
    kernel: KernelProfiler
    spans: SpanProfiler
    lifecycle: WormLifecycleTracer
    packets: List[PacketLife] = field(default_factory=list)
    heatmap: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    #: the :func:`~repro.network.config.describe` fingerprint of the run
    config: str = ""

    def sections(self) -> Dict[str, Dict[str, Any]]:
        """Named JSON-ready sections for the JSONL digest."""
        return {
            "run": {
                "arch": self.arch,
                "scenario": self.scenario,
                "config": self.config,
                "cycles": self.cycles,
                "summary": self.summary,
            },
            "kernel": self.kernel.snapshot(),
            "spans": self.spans.snapshot(),
            "phases": self.lifecycle.phase_summary(),
            "heatmap": self.heatmap,
            "counters": self.counters,
        }


class Instruments:
    """The three profiling instruments and their wiring to one network.

    Build the network with :attr:`lifecycle` as its tracer (``inner``
    chains an ordinary trace capture behind it), :meth:`attach` before
    the first tick, :meth:`report` once the run is over.
    """

    def __init__(self, inner: Optional[Tracer] = None) -> None:
        self.kernel = KernelProfiler()
        self.spans = SpanProfiler()
        self.lifecycle = WormLifecycleTracer(inner=inner)

    def attach(self, network: Network) -> None:
        """Hook the kernel and span profilers into ``network``."""
        network.sim.attach_profiler(self.kernel)
        # before the first tick: switches freeze their per-port
        # receive bindings on first use
        self.spans.attach_all(network.links)

    def report(
        self,
        network: Network,
        registry: MetricsRegistry,
        arch_label: str = "",
        scenario_label: str = "",
        summary: Optional[Dict[str, float]] = None,
    ) -> ProfileReport:
        """Digest what the instruments saw up to ``network.sim.now``."""
        config = network.config
        cycles = network.sim.now
        return ProfileReport(
            arch=arch_label or config.switch_architecture.value,
            scenario=scenario_label,
            config=describe(config),
            cycles=cycles,
            summary=summary or {},
            kernel=self.kernel,
            spans=self.spans,
            lifecycle=self.lifecycle,
            packets=self.lifecycle.finalise(),
            heatmap=link_heatmap(network, cycles),
            counters={
                name: counter.value
                for name, counter in sorted(registry.counters.items())
            },
        )


def run_profiled(
    config: SimulationConfig,
    workload: Workload,
    arch_label: str = "",
    scenario_label: str = "",
    max_cycles: Optional[int] = None,
) -> ProfileReport:
    """Run ``workload`` on ``config`` with every instrument attached."""
    instruments = Instruments()
    registry = MetricsRegistry()
    network = build_network(
        config, tracer=instruments.lifecycle, metrics=registry
    )
    instruments.attach(network)
    result = run_workload(network, workload, max_cycles=max_cycles)
    return instruments.report(
        network, registry, arch_label, scenario_label, result.summary()
    )


def _render_kernel(report: ProfileReport) -> str:
    snap = report.kernel.snapshot()
    lines = [
        f"kernel [{report.arch}/{report.scenario}] — "
        f"{report.cycles} cycles: {snap['steps']} stepped, "
        f"{snap['cycles_skipped']} fast-forwarded "
        f"in {snap['fast_forwards']} jumps",
        f"  events fired: {snap['events']}, backlog mean "
        f"{snap['backlog_mean']} peak {snap['backlog_peak']}",
        "  ticks by component class:",
    ]
    ticks_by_class = snap["ticks_by_class"]
    total = max(1, snap["ticks"])
    for name, ticks in ticks_by_class.items():
        share = 100.0 * ticks / total
        lines.append(f"    {name:<28} {ticks:>10}  {share:5.1f}%")
    return "\n".join(lines)


def _render_phases(report: ProfileReport) -> str:
    phases = report.lifecycle.phase_summary()
    lines = [
        f"worm phases [{report.arch}/{report.scenario}] — "
        f"{phases['packets']} worms "
        f"({phases['incomplete']} still in flight):"
    ]
    for name in ("setup", "blocked", "transfer"):
        cell = phases[name]
        lines.append(
            f"  {name:<9} mean {cell['mean']:>8.2f} cycles "
            f"over {cell['count']} worms"
        )
    return "\n".join(lines)


def write_digest(
    reports: Sequence[ProfileReport], path: str, run: Optional[str] = None
) -> int:
    """Append all reports to a JSONL digest; returns lines written."""
    run = run or next_run_id()
    with JsonlWriter(path) as writer:
        for report in reports:
            for section, data in report.sections().items():
                writer.write(
                    {
                        "schema": SCHEMA_PROFILE,
                        "run": run,
                        "arch": report.arch,
                        "scenario": report.scenario,
                        "section": section,
                        "data": data,
                    }
                )
            for life in report.packets:
                record: Dict[str, Any] = {
                    "schema": SCHEMA_LIFECYCLE,
                    "run": run,
                    "arch": report.arch,
                }
                record.update(life.snapshot())
                writer.write(record)
        return writer.lines_written


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro profile`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Run one named scenario with the profiling subsystem "
            "attached and report kernel attribution, worm phase "
            "latencies and link utilisation."
        ),
    )
    parser.add_argument(
        "--scenario", default="saturation-hotspot",
        help="scenario name (default: saturation-hotspot)",
    )
    parser.add_argument(
        "--arch", default="both", choices=[*ARCH_CHOICES, "both"],
        help="switch architecture(s) to profile (default: both)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=None,
        help="hard cycle cap for the profiled run",
    )
    parser.add_argument(
        "--export-trace", metavar="PATH",
        help="write a merged Chrome-trace JSON (chrome://tracing)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write a repro.profile/1 + repro.lifecycle/1 JSONL digest",
    )
    args = parser.parse_args(argv)

    scenarios = {scenario.name: scenario for scenario in SCENARIOS}
    scenario: Optional[Scenario] = scenarios.get(args.scenario)
    if scenario is None:
        known = ", ".join(sorted(scenarios))
        print(
            f"profile: unknown scenario {args.scenario!r} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 1

    arch_labels = (
        list(ARCH_CHOICES) if args.arch == "both" else [args.arch]
    )
    reports: List[ProfileReport] = []
    for label in arch_labels:
        config = scenario.make_config(reference=False)
        config.switch_architecture = ARCH_CHOICES[label]
        report = run_profiled(
            config,
            scenario.make_workload(),
            arch_label=label,
            scenario_label=scenario.name,
            max_cycles=args.max_cycles,
        )
        reports.append(report)
        print(_render_kernel(report))
        print(_render_phases(report))
        print(render_heatmap(report.heatmap))
        spans = report.spans.snapshot()
        tx = spans["tx_span_hist"]
        rx = spans["rx_span_hist"]
        print(
            f"spans [{label}/{scenario.name}]: "
            f"{tx['count']} tx ops / {tx['total']:.0f} flits, "
            f"{rx['count']} rx ops / {rx['total']:.0f} flits "
            f"over {spans['links_attached']} links"
        )
        print()

    if args.export_trace:
        count = write_trace(build_trace(reports), args.export_trace)
        print(f"wrote {count} trace events to {args.export_trace}")
    if args.out:
        lines = write_digest(reports, args.out)
        print(f"wrote {lines} digest records to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
