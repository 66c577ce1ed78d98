"""Opt-in profiling: kernel attribution, worm lifecycles, exporters.

Three coordinated instruments, all layered on the existing observability
runtime switch and all obeying its zero-overhead contract (bit-identical
goldens and no hot-path cost when off — see ``docs/observability.md``):

* :mod:`repro.obs.profile.kernel_profiler` — a
  :class:`~repro.sim.kernel.ProfilerHook` attributing stepped cycles to
  component classes and recording calendar events, wake backlog and
  fast-forwarded idle spans, plus a :class:`SpanProfiler` that observes
  packed-link span sizes by rebinding link instance attributes (zero
  cost when not attached).
* :mod:`repro.obs.profile.lifecycle` — a
  :class:`~repro.sim.trace.Tracer` digesting the simulator's event
  stream into per-worm phase timings (setup / blocked / transfer).
* exporters — :mod:`repro.obs.profile.chrome_trace` (Chrome/Perfetto
  ``traceEvents`` JSON) and :mod:`repro.obs.profile.heatmap` (ASCII
  link utilisation per switch port).

``python -m repro profile`` (:mod:`repro.obs.profile.runner`) drives a
named scenario (:mod:`repro.traffic.scenarios`) through all three and
prints/exports the results.
"""

from repro.obs.profile.kernel_profiler import KernelProfiler, SpanProfiler
from repro.obs.profile.lifecycle import PacketLife, WormLifecycleTracer
from repro.obs.profile.chrome_trace import (
    build_trace,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.profile.heatmap import link_heatmap, render_heatmap
from repro.obs.profile.runner import ProfileReport, run_profiled

__all__ = [
    "KernelProfiler",
    "PacketLife",
    "ProfileReport",
    "SpanProfiler",
    "WormLifecycleTracer",
    "build_trace",
    "link_heatmap",
    "render_heatmap",
    "run_profiled",
    "validate_chrome_trace",
    "write_trace",
]
