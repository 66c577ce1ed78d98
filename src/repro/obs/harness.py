"""The instrumented run path behind ``run_simulation``.

When :mod:`repro.obs.runtime` is configured, every simulation built
through :func:`repro.network.simulation.run_simulation` comes through
here instead of the plain build-and-run path: the network is built with
a :class:`~repro.obs.registry.MetricsRegistry` (so switches and hosts
register their counters) and a streaming tracer, the standard
network gauges are registered, a :class:`~repro.obs.sampler.CycleSampler`
is attached, and the run is bracketed by ``repro.run/1`` start/end lines
carrying the config fingerprint and the final counter snapshot.

Instrumentation observes; it never steers.  The simulation result is
bit-identical to the uninstrumented path (enforced by
``tests/obs/test_zero_overhead.py``).
"""

from __future__ import annotations

import time
from contextlib import ExitStack, closing
from typing import TYPE_CHECKING, Optional

from repro.network.builder import build_network
from repro.network.config import SimulationConfig, describe
from repro.obs import runtime
from repro.obs.manifest import config_sha256
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import CycleSampler, register_network_gauges
from repro.obs.sinks import JsonlTracer, MetricsSink
from repro.sim.trace import Tracer
from repro.traffic.base import Workload

if TYPE_CHECKING:  # circular at runtime: simulation.py imports us lazily
    from repro.network.simulation import SimulationResult


def run_instrumented(
    config: SimulationConfig,
    workload: Workload,
    max_cycles: Optional[int],
    options: runtime.ObsOptions,
) -> "SimulationResult":
    """Build, instrument, run and record one simulation."""
    # lazy import: simulation.py imports us lazily for the same reason
    from repro.network.simulation import run_workload

    run_id = runtime.next_run_id()
    fingerprint = describe(config)
    registry = MetricsRegistry()

    # every writer opened here is closed on the way out, whether the
    # run finishes, stalls, or the config never builds a network
    with ExitStack() as writers:
        stream_tracer = None
        if options.trace_out:
            stream_tracer = writers.enter_context(
                closing(JsonlTracer(options.trace_out, run=run_id))
            )
        sink = None
        if options.metrics_out:
            sink = writers.enter_context(MetricsSink(options.metrics_out))

        instruments = None
        tracer: Optional[Tracer] = stream_tracer
        if options.profile_out:
            # profiling layers on top of (and chains to) the stream
            # tracer; imported lazily, the runner imports simulation.py
            from repro.obs.profile.runner import Instruments, write_digest

            instruments = Instruments(inner=stream_tracer)
            tracer = instruments.lifecycle

        network = build_network(config, tracer=tracer, metrics=registry)
        if instruments is not None:
            instruments.attach(network)
        register_network_gauges(network, registry)
        sampler = CycleSampler(
            registry,
            every=options.effective_sample_every,
            sink=sink,
            run=run_id,
        )
        network.sim.add_component(sampler)

        if sink is not None:
            sink.write_run_event(
                run_id,
                "start",
                config=fingerprint,
                config_sha256=config_sha256(fingerprint),
                seed=config.seed,
                workload=type(workload).__name__,
                sample_every=sampler.every,
            )
        started = time.perf_counter()
        try:
            result = run_workload(network, workload, max_cycles=max_cycles)
        finally:
            wall = time.perf_counter() - started
            if sink is not None:
                sink.write_run_event(
                    run_id,
                    "end",
                    cycles=network.sim.now,
                    wall_seconds=round(wall, 6),
                    samples=len(sampler.series),
                    **registry.snapshot(),
                )
            if instruments is not None and options.profile_out:
                write_digest(
                    [instruments.report(network, registry)],
                    options.profile_out,
                    run=run_id,
                )
    return result
