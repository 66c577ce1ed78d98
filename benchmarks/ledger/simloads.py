"""The five single-simulation workloads and their outside-in probe.

Workload parameters live here, not in ``repro.bench.kernel.SCENARIOS``,
so an edit under ``src/`` cannot silently change the load.  Sizes are
set so that one repeat takes 0.75-0.9 s on the recording machine and a
ten-second run holds about ten repeats.

A repeat is ``build_network`` + workload construction (``setup_s``)
followed by the timed section: ``run_workload`` and the reading of its
result.  ``run_workload`` is the public call, so ``Workload.start``
runs inside the timed section; the traced run reports it separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro import (
    HotspotTraffic,
    MulticastScheme,
    RandomMulticastStream,
    SimulationConfig,
    SwitchArchitecture,
    UniformRandomUnicast,
    build_network,
)
from repro.network.simulation import run_workload
from repro.obs.profile.kernel_profiler import KernelProfiler
from repro.switches.base import SwitchBase
from repro.traffic.base import Workload

from common import SpanLog

CB = SwitchArchitecture.CENTRAL_BUFFER
IB = SwitchArchitecture.INPUT_BUFFER


@dataclass(frozen=True)
class SimLoad:
    """One simulation workload: a system and the traffic offered to it."""

    name: str
    num_hosts: int
    architecture: SwitchArchitecture
    #: builds the traffic for a measure window scaled by ``shrink``
    traffic: Callable[[float], Workload]
    #: flit-hops of a typical repeat (the mean over the realisations in
    #: ``expected.json``, rounded); ``wall_s`` is reported at this work
    nominal_flit_hops: int

    def config(self, seed: int, reference: bool = False) -> SimulationConfig:
        """Production flavour, or the dense-kernel/object-flit reference
        the recorded digests are checked against."""
        return SimulationConfig(
            num_hosts=self.num_hosts,
            switch_architecture=self.architecture,
            seed=seed,
            dense_kernel=reference,
            packed=not reference,
        )


def simulator_seed(seed: int, variant: int) -> int:
    """The simulator seed of one traffic realisation of ``--seed``."""
    return 1_000 * seed + variant


def _scaled(cycles: int, shrink: float) -> int:
    return max(50, int(cycles * shrink))


def _idle(shrink: float) -> Workload:
    return UniformRandomUnicast(
        load=0.005,
        payload_flits=16,
        warmup_cycles=1_000,
        measure_cycles=_scaled(12_000, shrink),
    )


def _saturated(shrink: float) -> Workload:
    return UniformRandomUnicast(
        load=0.9,
        payload_flits=16,
        warmup_cycles=200,
        measure_cycles=_scaled(250, shrink),
    )


def _hotspot(shrink: float) -> Workload:
    return HotspotTraffic(
        load=0.5,
        hotspot_fraction=0.4,
        payload_flits=32,
        warmup_cycles=300,
        measure_cycles=_scaled(450, shrink),
    )


def _multicast(shrink: float) -> Workload:
    return RandomMulticastStream(
        ops_per_host_per_kilocycle=1.0,
        degree=16,
        payload_flits=64,
        scheme=MulticastScheme.HARDWARE,
        warmup_cycles=300,
        measure_cycles=_scaled(800, shrink),
    )


SIM_LOADS: Dict[str, SimLoad] = {
    load.name: load
    for load in (
        SimLoad("idle-256", 256, CB, _idle, 122_000),
        SimLoad("sat-uniform-64", 64, CB, _saturated, 140_000),
        SimLoad("hotspot-64", 64, CB, _hotspot, 131_000),
        SimLoad("mcast-cb-64", 64, CB, _multicast, 168_000),
        SimLoad("mcast-ib-64", 64, IB, _multicast, 168_000),
    )
}

# accumulator slots of SimProbe.acc
_LINK_BUSY, _TX_CALLS, _RX_CALLS, _RX_FLITS = 0, 1, 2, 3
_SWITCH, _HOST = 4, 7  # each: busy seconds, link child seconds, ticks
_START = 10
_SLOTS = 11


class SimProbe:
    """Busy-time and count accumulators for one built network.

    Per-tick and per-link-call spans would number about a million per
    repeat, so they are summed instead of kept.  The probe is attached
    from outside by instance-attribute rebinding — ``tick`` on every
    component, the four span entry points on every link, ``start`` on
    the workload — the same documented pattern ``SpanProfiler`` uses,
    and before the first tick, because the packed central-buffer switch
    freezes its receive bindings on first use.
    """

    def __init__(self, network: Any, workload: Workload, spans: SpanLog) -> None:
        self.acc: List[float] = [0.0] * _SLOTS
        self.kernel = KernelProfiler()
        network.sim.attach_profiler(self.kernel)
        for component in network.sim.components:
            self._wrap_tick(
                component,
                _SWITCH if isinstance(component, SwitchBase) else _HOST,
            )
        for link in network.links:
            self._wrap_link(link)
        acc = self.acc
        start = workload.start

        def timed_start(net: Any) -> None:
            began = perf_counter()
            start(net)
            ended = perf_counter()
            acc[_START] += ended - began
            spans.add("start", began, ended)

        workload.start = timed_start  # type: ignore[method-assign]

    def _wrap_tick(self, component: Any, slot: int) -> None:
        acc = self.acc
        tick = component.tick

        def timed_tick(now: int) -> None:
            child = acc[_LINK_BUSY]
            began = perf_counter()
            tick(now)
            acc[slot] += perf_counter() - began
            acc[slot + 1] += acc[_LINK_BUSY] - child
            acc[slot + 2] += 1

        component.tick = timed_tick

    def _wrap_link(self, link: Any) -> None:
        acc = self.acc

        def timed_send(send: Callable[..., None]) -> Callable[..., None]:
            def wrapper(*args: Any) -> None:
                began = perf_counter()
                send(*args)
                acc[_LINK_BUSY] += perf_counter() - began
                acc[_TX_CALLS] += 1

            return wrapper

        receive = link.receive_span

        def timed_receive(now: int, limit: Optional[int] = None) -> Any:
            began = perf_counter()
            span = receive(now, limit)
            acc[_LINK_BUSY] += perf_counter() - began
            acc[_RX_CALLS] += 1
            if span is not None:
                acc[_RX_FLITS] += span[2]
            return span

        link.send_span = timed_send(link.send_span)
        link.send_packed = timed_send(link.send_packed)
        link.send_granted = timed_send(link.send_granted)
        link.receive_span = timed_receive

    def layers(
        self, run_s: float, summarise_s: float, flit_hops: int
    ) -> Dict[str, float]:
        """Per-layer counts and self times of one traced repeat.

        ``run_s`` is the ``run_workload`` span.  A layer's self time is
        its busy time minus its children's: link calls are children of
        the tick that made them, ticks and the workload's start are
        children of the run.  What is left of the run is the kernel's
        own: calendar upkeep, fast-forwarding, and the calendar events
        (traffic generators, host software model) it fires.
        """
        acc = self.acc
        link_busy = acc[_LINK_BUSY]
        switch_busy, switch_child, switch_ticks = acc[_SWITCH:_SWITCH + 3]
        host_busy, host_child, host_ticks = acc[_HOST:_HOST + 3]
        switch_self = switch_busy - switch_child
        sim_self = run_s - acc[_START] - switch_busy - host_busy
        kernel = self.kernel
        ticks = max(1, kernel.total_ticks)
        hops = max(1, flit_hops)
        return {
            # link time outside any tick would be counted twice here,
            # which is what trace.unaccounted_frac would then show
            "self_sum_s": sim_self
            + switch_self
            + (host_busy - host_child)
            + link_busy
            + acc[_START]
            + summarise_s,
            "sim.ticks": kernel.total_ticks,
            "sim.steps": kernel.steps,
            "sim.cycles_skipped": kernel.cycles_skipped,
            "sim.ff_jumps": kernel.fast_forwards,
            "sim.self_s": sim_self,
            "sim.dispatch_ns_per_tick": sim_self / ticks * 1e9,
            "switch.ticks": switch_ticks,
            "switch.busy_s": switch_busy,
            "switch.self_s": switch_self,
            "switch.us_per_tick": switch_busy / max(1, switch_ticks) * 1e6,
            "switch.ns_per_flit_hop": switch_self / hops * 1e9,
            "link.tx_calls": acc[_TX_CALLS],
            "link.rx_calls": acc[_RX_CALLS],
            "link.flit_hops": flit_hops,
            "link.flits_per_rx_call": acc[_RX_FLITS] / max(1, acc[_RX_CALLS]),
            "link.busy_s": link_busy,
            "link.ns_per_flit": link_busy / hops * 1e9,
            "host.ticks": host_ticks,
            "host.busy_s": host_busy,
            "host.us_per_tick": host_busy / max(1, host_ticks) * 1e6,
            "traffic.start_s": acc[_START],
        }


def digest(result: Any, flit_hops: int) -> Dict[str, Any]:
    """What a repeat must reproduce exactly: simulated time only."""
    return {
        "cycles": result.cycles,
        "flit_hops": flit_hops,
        "summary": result.summary(),
    }


def run_repeat(
    load: SimLoad,
    seed: int,
    shrink: float,
    spans: SpanLog,
    reference: bool = False,
) -> Dict[str, Any]:
    """One repeat; traced when ``spans`` is enabled."""
    began = perf_counter()
    with spans.span("build"):
        network = build_network(load.config(seed, reference))
    built = perf_counter()
    workload = load.traffic(shrink)
    setup_s = perf_counter() - began
    probe = SimProbe(network, workload, spans) if spans.enabled else None

    timed = perf_counter()
    with spans.span("timed"):
        with spans.span("run"):
            result = run_workload(network, workload)
        ran = perf_counter()
        with spans.span("summarise"):
            flit_hops = sum(link.flits_sent for link in network.links)
            outcome = digest(result, flit_hops)
    ended = perf_counter()
    sample: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": ended - timed,
        "work": flit_hops,
        "nominal_work": load.nominal_flit_hops,
        "digest": outcome,
    }
    if probe is not None:
        sample["layers"] = probe.layers(ran - timed, ended - ran, flit_hops)
        sample["layers"]["network.build_s"] = built - began
        sample["layers"]["network.builds"] = 1
    return sample
