"""Worm lifecycle digestion: phase timings per packet.

:class:`WormLifecycleTracer` is a :class:`~repro.sim.trace.Tracer` that
sits where any tracer would (passed to ``build_network``) and *digests*
the event stream instead of retaining it: each worm's journey —
injection, header routed at each hop, branches replicated, tail drained
into the destination NI — is folded into one :class:`PacketLife` record
with a three-phase latency breakdown:

``setup``
    cycles from message creation to the first header flit entering the
    network (source queueing + NI serialisation backlog);
``blocked``
    cycles the header spent waiting beyond the nominal routing delay,
    summed over every hop (contention: arbitration losses, buffer-full
    and HOL blocking);
``transfer``
    the remainder up to tail delivery (pipelined movement at full rate).

For a unicast worm the phases tile the end-to-end latency exactly
(``setup + blocked + transfer == delivered - created``); a
multidestination worm sums ``blocked`` over *all* replicated branches,
which can exceed the wall interval of the single tail delivery, so
``transfer`` is clamped at zero.

An ``inner`` tracer can be chained so ordinary trace capture (e.g. a
:class:`~repro.obs.sinks.JsonlTracer` streaming to disk) keeps working
while the digest accumulates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.registry import BucketHistogram
from repro.sim.trace import Tracer

#: bucket upper bounds for per-phase latency histograms (cycles)
PHASE_BOUNDS = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: events that mark a routing decision at a switch hop
_HOP_EVENTS = frozenset(("route", "bypass", "queue_cb", "admit_multidest"))


class PacketLife:
    """The digested lifecycle of one packet (one worm per destination
    path in the object plane; identified by its globally-unique id)."""

    __slots__ = (
        "packet_id",
        "created",
        "injected",
        "delivered",
        "flits",
        "hops",
        "branches",
        "blocked",
        "deliveries",
    )

    def __init__(self, packet_id: int) -> None:
        self.packet_id = packet_id
        #: cycle the owning message was created (source queue entry)
        self.created: Optional[int] = None
        #: cycle the first header flit entered the network
        self.injected: Optional[int] = None
        #: cycle the tail drained at the (last) destination
        self.delivered: Optional[int] = None
        #: worm length in flits
        self.flits = 0
        #: ``(cycle, switch, event, waited, branches)`` per routing hop
        self.hops: List[Dict[str, Any]] = []
        #: replication branches spawned across all hops (multidestination)
        self.branches = 0
        #: cycles spent blocked beyond nominal routing, summed over hops
        self.blocked = 0
        #: destination NIs that absorbed the tail (multicast > 1)
        self.deliveries = 0

    @property
    def complete(self) -> bool:
        """True once injection and at least one delivery were seen."""
        return (
            self.created is not None
            and self.injected is not None
            and self.delivered is not None
        )

    def phases(self) -> Dict[str, int]:
        """The three-phase latency breakdown (requires :attr:`complete`)."""
        assert (
            self.created is not None
            and self.injected is not None
            and self.delivered is not None
        )
        setup = self.injected - self.created
        transfer = max(0, self.delivered - self.injected - self.blocked)
        return {
            "setup": setup,
            "blocked": self.blocked,
            "transfer": transfer,
            "total": self.delivered - self.created,
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready record (phases included when complete)."""
        out: Dict[str, Any] = {
            "packet": self.packet_id,
            "created": self.created,
            "injected": self.injected,
            "delivered": self.delivered,
            "flits": self.flits,
            "hop_count": len(self.hops),
            "branches": self.branches,
            "deliveries": self.deliveries,
        }
        if self.complete:
            out.update(self.phases())
        return out


class WormLifecycleTracer(Tracer):
    """Digests lifecycle events into per-packet phase records.

    Retains no raw records of its own — digestion happens inline in
    :meth:`emit`; chain an ``inner`` tracer to keep them.
    """

    def __init__(self, inner: Optional[Tracer] = None) -> None:
        super().__init__()
        #: chained tracer receiving every event verbatim (or ``None``)
        self.inner = inner
        #: per-packet digests, keyed by globally-unique packet id
        self.packets: Dict[int, PacketLife] = {}
        self.setup_hist = BucketHistogram("worm.setup_cycles", PHASE_BOUNDS)
        self.blocked_hist = BucketHistogram(
            "worm.blocked_cycles", PHASE_BOUNDS
        )
        self.transfer_hist = BucketHistogram(
            "worm.transfer_cycles", PHASE_BOUNDS
        )
        #: events seen that carried no packet id (not digestible)
        self.ignored_events = 0

    def _life(self, packet_id: int) -> PacketLife:
        life = self.packets.get(packet_id)
        if life is None:
            life = self.packets[packet_id] = PacketLife(packet_id)
        return life

    def emit(
        self, cycle: int, source: str, event: str, **details: Any
    ) -> None:
        if self.inner is not None:
            self.inner.emit(cycle, source, event, **details)
        packet_id = details.get("packet")
        if packet_id is None:
            self.ignored_events += 1
            return
        if event == "inject_start":
            life = self._life(packet_id)
            life.created = details.get("created", cycle)
            life.injected = cycle
            life.flits = details.get("flits", 0)
        elif event in _HOP_EVENTS:
            life = self._life(packet_id)
            waited = max(0, details.get("waited", 0))
            branches = details.get("branches", 1)
            life.blocked += waited
            life.branches += max(0, branches - 1)
            life.hops.append(
                {
                    "cycle": cycle,
                    "switch": source,
                    "event": event,
                    "waited": waited,
                    "branches": branches,
                }
            )
        elif event == "packet_delivered":
            life = self._life(packet_id)
            life.deliveries += 1
            # multicast worms deliver at several NIs; the lifecycle
            # closes at the *last* arrival, like op_last_latency
            if life.delivered is None or cycle > life.delivered:
                life.delivered = cycle

    def finalise(self) -> List[PacketLife]:
        """Fold completed packets into the phase histograms and return
        them sorted by packet id (incomplete worms are left out)."""
        done = sorted(
            (p for p in self.packets.values() if p.complete),
            key=lambda p: p.packet_id,
        )
        for life in done:
            phases = life.phases()
            self.setup_hist.observe(phases["setup"])
            self.blocked_hist.observe(phases["blocked"])
            self.transfer_hist.observe(phases["transfer"])
        return done

    def phase_summary(self) -> Dict[str, Any]:
        """Aggregate phase statistics over completed packets.

        Call :meth:`finalise` first to populate the histograms.
        """

        def stats(hist: BucketHistogram) -> Dict[str, float]:
            mean = hist.total / hist.count if hist.count else 0.0
            return {"count": hist.count, "mean": round(mean, 2)}

        incomplete = sum(
            1 for p in self.packets.values() if not p.complete
        )
        return {
            "packets": len(self.packets),
            "incomplete": incomplete,
            "setup": stats(self.setup_hist),
            "blocked": stats(self.blocked_hist),
            "transfer": stats(self.transfer_hist),
            "setup_hist": self.setup_hist.snapshot(),
            "blocked_hist": self.blocked_hist.snapshot(),
            "transfer_hist": self.transfer_hist.snapshot(),
            "ignored_events": self.ignored_events,
        }
