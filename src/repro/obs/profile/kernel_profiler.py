"""Kernel and span-level profiling instruments.

:class:`KernelProfiler` implements the kernel's
:class:`~repro.sim.kernel.ProfilerHook` protocol: attach one with
``sim.attach_profiler(profiler)`` and every stepped cycle is attributed
to the component classes that ticked (the kernel rebinds each
component's ``tick`` to call :meth:`KernelProfiler.record_tick` first),
calendar events and wake backlog are accumulated, and each
fast-forwarded idle span lands in a size histogram (the direct answer
to "is the active-set kernel jumping or crawling?").  All counting uses simulated cycles only — no wall clock —
so attaching a profiler can never perturb results.

:class:`SpanProfiler` observes the packed data plane from outside: it
wraps a :class:`~repro.switches.link.Link`'s span-movement entry points
(``send_span`` / ``send_packed`` / ``send_granted`` / ``receive_span``)
by *instance-attribute rebinding*, so an unprofiled link runs the
original bound methods with zero indirection.  Span-size histograms
answer the packed plane's key question: how many flits move per
span-queue operation (1 = the plane has degenerated to per-flit moves).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import BucketHistogram
from repro.sim.component import Component
from repro.switches.link import Link

#: bucket upper bounds for idle-span and span-size histograms (powers of
#: two; the registry adds an overflow bucket)
SPAN_BOUNDS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: fast-forward jump records kept verbatim for trace export; beyond this
#: only the aggregate counters grow
MAX_JUMPS = 20_000


class KernelProfiler:
    """Attributes kernel activity to component classes and idle spans."""

    def __init__(self) -> None:
        #: ticks executed, keyed by component class name
        self.ticks_by_class: Dict[str, int] = {}
        #: cycles actually stepped (the rest were fast-forwarded)
        self.steps = 0
        #: calendar events fired
        self.events = 0
        #: sum over steps of (pending events + pending wakes)
        self.backlog_sum = 0
        #: largest backlog seen at any step
        self.backlog_peak = 0
        #: fast-forward jumps taken
        self.fast_forwards = 0
        #: total idle cycles skipped by those jumps
        self.cycles_skipped = 0
        #: idle-span size distribution
        self.idle_spans = BucketHistogram(
            "kernel.idle_span_cycles", SPAN_BOUNDS
        )
        #: first ``MAX_JUMPS`` jumps as ``(start_cycle, length)`` for the
        #: Chrome-trace exporter; ``jumps_dropped`` counts the overflow
        self.jumps: List[Tuple[int, int]] = []
        self.jumps_dropped = 0

    # -- ProfilerHook protocol -----------------------------------------
    def record_tick(self, component: Component) -> None:
        name = type(component).__name__
        ticks = self.ticks_by_class
        ticks[name] = ticks.get(name, 0) + 1

    def record_step(self, now: int, events: int, backlog: int) -> None:
        self.steps += 1
        self.events += events
        self.backlog_sum += backlog
        if backlog > self.backlog_peak:
            self.backlog_peak = backlog

    def record_fast_forward(self, start: int, skipped: int) -> None:
        self.fast_forwards += 1
        self.cycles_skipped += skipped
        self.idle_spans.observe(skipped)
        if len(self.jumps) < MAX_JUMPS:
            self.jumps.append((start, skipped))
        else:
            self.jumps_dropped += 1

    # -- reporting ------------------------------------------------------
    @property
    def total_ticks(self) -> int:
        return sum(self.ticks_by_class.values())

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary of everything recorded."""
        mean_backlog = self.backlog_sum / self.steps if self.steps else 0.0
        return {
            "steps": self.steps,
            "events": self.events,
            "ticks": self.total_ticks,
            "ticks_by_class": dict(
                sorted(
                    self.ticks_by_class.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ),
            "backlog_mean": round(mean_backlog, 2),
            "backlog_peak": self.backlog_peak,
            "fast_forwards": self.fast_forwards,
            "cycles_skipped": self.cycles_skipped,
            "idle_span_hist": self.idle_spans.snapshot(),
        }


class SpanProfiler:
    """Span-size histograms from a set of links, attached by rebinding.

    ``attach`` replaces the link's span entry points with thin wrappers
    holding the originals in closures.  Because ``Link`` resolves these
    calls through instance attributes (``Link.send`` dispatches via
    ``self.send_packed``; the switches cache
    ``link.receive_span`` bindings lazily at first tick), the wrappers
    intercept every data-plane movement — and a link that was never
    attached keeps its original bound methods, costing nothing.

    Attach before the first simulation tick: a switch freezes its
    per-port receive bindings on first use.
    """

    def __init__(self) -> None:
        #: flits per transmit operation (send_span counts the whole
        #: span; per-flit sends land in the 1-bucket)
        self.tx_spans = BucketHistogram("link.tx_span_len", SPAN_BOUNDS)
        #: flits per receive_span call: a record handed over (the NI
        #: takes the landed part of one)
        self.rx_spans = BucketHistogram("link.rx_span_len", SPAN_BOUNDS)
        #: links currently wrapped
        self.links_attached = 0

    def attach(self, link: Link) -> None:
        """Wrap one link's span entry points (idempotent per link)."""
        if getattr(link, "_span_profiled", False):
            return
        orig_send_span = link.send_span
        orig_send_packed = link.send_packed
        orig_send_granted = link.send_granted
        orig_receive_span = link.receive_span
        tx = self.tx_spans
        rx = self.rx_spans

        def send_span(now: int, worm: Any, start: int, count: int) -> None:
            tx.observe(count)
            orig_send_span(now, worm, start, count)

        def send_packed(now: int, worm: Any, index: int) -> None:
            tx.observe(1)
            orig_send_packed(now, worm, index)

        def send_granted(now: int, worm: Any, index: int) -> None:
            tx.observe(1)
            orig_send_granted(now, worm, index)

        def receive_span(
            now: int, limit: Optional[int] = None
        ) -> Optional[Tuple[Any, int, int]]:
            span = orig_receive_span(now, limit)
            if span is not None:
                rx.observe(span[2])
            return span

        # instance-attribute rebinding (not monkeypatching the class):
        # only this link pays the wrapper, and only while profiled
        setattr(link, "send_span", send_span)
        setattr(link, "send_packed", send_packed)
        setattr(link, "send_granted", send_granted)
        setattr(link, "receive_span", receive_span)
        setattr(link, "_span_profiled", True)
        self.links_attached += 1

    def attach_all(self, links: List[Link]) -> None:
        """Wrap every link of a built network."""
        for link in links:
            self.attach(link)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready span histograms."""
        return {
            "links_attached": self.links_attached,
            "tx_span_hist": self.tx_spans.snapshot(),
            "rx_span_hist": self.rx_spans.snapshot(),
        }
