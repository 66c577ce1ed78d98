"""Packed-data-plane variant of the central-buffer switch.

Same microarchitecture as
:class:`~repro.switches.central_buffer.CentralBufferSwitch` — the
routing, admission and buffering phases are inherited unchanged — but
the flit-movement phases are rewritten against the packed link API:
spans in (:class:`~repro.switches.ports.MaskedReceive` feeding the
skeleton's ``_accept_span``), flit coordinates out
(:meth:`~repro.switches.link.Link.send_granted`, or a whole run of
them, see below), and central-buffer bandwidth arbitrated with the
single-rotation
:meth:`~repro.switches.arbiter.RoundRobinArbiter.grant_batch`.  No
:class:`~repro.flits.flit.Flit` object is ever constructed here
(enforced by reprolint rule REP008).

Every observable is bit-identical to the object path: a span accept
updates the same ingress cursors the per-flit accept would, and every
flit leaves on the cycle the one-flit-per-cycle reference sends it, so
credits, arrival cycles, arbiter pointers and pool occupancy evolve
identically (see ``tests/sim/test_packed_differential.py`` and
``tests/switches/test_span_commit.py``).  Beyond the span moves, the
rewritten phases shave constant factors the object path pays per flit:
the bandwidth caps are cached at construction, the stored packet of each
active output is cached per port instead of re-resolved through the
``id(cursor)`` registry twice per cycle, and the FIFO-slot consume and
kernel progress bookkeeping are inlined into the phase loops.

No phase scans the whole port range: each iterates the set bits of the
port-activity mask that names its work (see :mod:`repro.switches.ports`),
in ascending port order, so a tick costs in proportion to the ports
that have something to do.

**Span cut-through.**  Central-buffer reads and writes are arbitrated
per cycle, so they stay one flit per call.  The bypass path is not: once
a unicast worm owns an idle output nothing but arrivals and credits can
delay it.  When at least two of its non-tail flits have send cycles that
are already determined, :meth:`PackedCentralBufferSwitch._advance_bypass`
commits them in one :meth:`~repro.switches.link.Link.send_span`, hands
their FIFO slots back as one future-dated
:meth:`~repro.switches.link.Link.return_credit_ramp` and wakes itself
when the run ends; a switch whose every worm is inside such a run does
not re-arm in between (``_inside_runs``).  Runs are committed only while
tracer and metrics registry are both disabled: per-flit observers need
the one-flit timeline.  ``fifo_occupancy`` and the link's credit
introspection keep reporting that timeline while a run is ahead of it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.routing.table import SwitchRoutingTable
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switches.base import SwitchSettings
from repro.switches.central_buffer import (
    CentralBufferSwitch,
    _BypassFeed,
    _Ingress,
    _IngressState,
)
from repro.switches.chunks import StoredPacket
from repro.switches.link import Link
from repro.switches.ports import PORTS_OF, MaskedReceive

_ROUTE_WAIT = _IngressState.ROUTE_WAIT
_ADMIT_WAIT = _IngressState.ADMIT_WAIT


def _bypass_run(
    ingress: _Ingress, in_link: Optional[Link], link: Link, now: int
) -> int:
    """Flits of a bypass worm to commit at ``now`` in one span: at least
    2, or 0 for the single-flit path.

    A flit belongs to the run when its send cycle is already determined:
    it sits in the input FIFO, or it is a member of the in-link's head
    span record that lands no later than its turn (the record continues
    this worm where the FIFO ends, and member ``m`` arrives at
    ``arrival + m`` for a turn at ``now + waiting + m``); and the
    out-link's credit window covers it.  The output is this worm's until
    its tail, and bypass feeds do not contend for buffer bandwidth, so
    nothing else can delay those sends — the run is exactly what the
    per-flit path would do over the next cycles.  The tail is never a
    member: it leaves through the single-flit path, which releases the
    output, pops the FIFO and exposes the next worm at the cycle they
    are due.
    """
    consumed = ingress.consumed
    received = ingress.received
    waiting = received - consumed
    run = waiting
    if in_link is not None:
        head = in_link._in_flight.head()
        if (
            head is not None
            and head[1] is ingress.worm
            and head[2] == received
            and head[0] - now <= waiting
        ):
            run += head[3]
    body = ingress.worm.size_flits - 1 - consumed
    if run > body:
        run = body
    if run < 2:
        return 0
    window = link.sendable_span(now)
    if run > window:
        run = window
    return run if run >= 2 else 0


class PackedCentralBufferSwitch(MaskedReceive, CentralBufferSwitch):
    """SP2-style shared-buffer switch on the packed data plane."""

    def __init__(
        self,
        name: str,
        table: SwitchRoutingTable,
        num_ports: int,
        settings: SwitchSettings,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        super().__init__(name, table, num_ports, settings, tracer, metrics)
        # hot-path constants and caches (see module docstring)
        self._w_bw = settings.cb_write_bandwidth
        self._r_bw = settings.cb_read_bandwidth
        self._chunk_flits = settings.chunk_flits
        #: stored packet feeding each active (non-bypass) output, cached
        #: at branch activation so the per-cycle scan never consults the
        #: ``_stored_of_cursor`` registry
        self._cur_stored: List[Optional[StoredPacket]] = [None] * num_ports
        #: commit runs of bypass flits in one call (see _advance_bypass);
        #: per-flit observers need the one-flit timeline, so off with them
        self._commit = not (tracer.enabled or metrics.enabled)

    # -- phase 2: route the FIFO-front worm and admit it -----------------
    def _route_and_admit(self, now: int) -> None:
        inflows = self._inflow
        for port in PORTS_OF[self._route_pending]:
            ingress = inflows[port][0]
            if ingress.state is _ROUTE_WAIT:
                self._try_route(port, ingress, now)
            if ingress.state is _ADMIT_WAIT:
                self._try_admit(port, ingress, now)

    # -- phase 3: move flits from input FIFOs into the central buffer ----
    def _write_central_buffer(self, now: int) -> None:
        inflows = self._inflow
        candidates = []
        for port in PORTS_OF[self._cb_feed]:
            ingress = inflows[port][0]
            if ingress.consumed < ingress.received:
                candidates.append(port)
        if not candidates:
            return
        w_bw = self._w_bw
        winners = self._write_arbiter.grant_batch(candidates, w_bw)
        in_links = self.in_links
        progress = 0
        for port in winners:
            ingress = inflows[port][0]
            stored = ingress.stored
            assert stored is not None
            if not stored.ensure_write_space(now):
                if self._obs:
                    self._c_blocked.inc()
                # when more inputs competed than the write bandwidth
                # admits, next cycle's rotated grant may reach an input
                # whose own quota still has room — keep polling
                if len(candidates) > w_bw:
                    self._stirred = True
                continue  # central buffer full: stall this input
            stored.write_flit()
            # inlined FIFO-slot consume (the object path's
            # _consume_fifo_slot, minus a call per flit)
            consumed = ingress.consumed + 1
            ingress.consumed = consumed
            link = in_links[port]
            if link is not None:
                link.return_credit(now)
            if consumed == ingress.worm.size_flits:
                self._pop_front(port)
            progress += 1
        if progress:
            self._stirred = True
            self.sim.progress += progress

    # -- phase 4: drive the output ports ---------------------------------
    def _drive_outputs(self, now: int) -> None:
        out_current = self._out_current
        out_links = self.out_links
        cur_stored = self._cur_stored
        # activate queued branches on idle outputs
        ready = self._egress_wanted & ~self._egress_busy
        if ready:
            out_queue = self._out_queue
            for port in PORTS_OF[ready]:
                queue = out_queue[port]
                cursor = queue.popleft()
                out_current[port] = cursor
                cur_stored[port] = self._stored_of_cursor[id(cursor)]
                if not queue:
                    self._egress_wanted &= ~(1 << port)
            self._egress_busy |= ready
            self._stirred = True
        # bypass feeds move independently of central-buffer bandwidth
        read_candidates = []
        for port in PORTS_OF[self._egress_busy]:
            current = out_current[port]
            if type(current) is _BypassFeed:
                self._advance_bypass(port, current, now)
            else:
                stored = cur_stored[port]
                link = out_links[port]
                assert stored is not None
                # inlined Link.can_send (kept in sync with it): credits
                # only ever grow by draining matured returns, so a
                # positive counter needs no drain to prove sendability
                if (
                    link is not None
                    and current.read < stored.flits_written  # type: ignore[attr-defined]
                    and link._last_send_cycle < now
                    and (
                        link._credits > 0  # type: ignore[operator]
                        or link.can_send(now)
                    )
                ):
                    read_candidates.append(port)
        if not read_candidates:
            return
        winners = self._read_arbiter.grant_batch(read_candidates, self._r_bw)
        chunk = self._chunk_flits
        progress = 0
        for port in winners:
            cursor = out_current[port]
            stored = cur_stored[port]
            link = out_links[port]
            assert stored is not None and link is not None
            read = cursor.read  # type: ignore[union-attr]
            link.send_granted(now, cursor.worm, read)  # type: ignore[union-attr]
            read += 1
            cursor.read = read  # type: ignore[union-attr]
            # inlined chunk release: the slowest branch's chunk index
            # can only move when this cursor crosses a chunk boundary or
            # finishes, so skip the call on every other flit
            if read == stored.total_flits or not read % chunk:
                stored._release_consumed(now)
            progress += 1
            if read == stored.total_flits:
                del self._stored_of_cursor[id(cursor)]
                out_current[port] = None
                cur_stored[port] = None
                self._egress_busy &= ~(1 << port)
        if progress:
            self._stirred = True
            self.sim.progress += progress
            if self._obs:
                self._c_forwarded.inc(progress)

    def _advance_bypass(self, port: int, feed: _BypassFeed, now: int) -> None:
        ingress = feed.ingress
        link = self.out_links[port]
        if link is None:
            raise ProtocolError(f"{self.name}: bypass to unwired port {port}")
        consumed = ingress.consumed
        # a committed run holds the link's slot (and keeps `consumed`
        # ahead of `received`) until its last member's cycle has passed
        if consumed >= ingress.received or link._last_send_cycle >= now:
            return
        # inlined Link.can_send, as in the read-candidate scan
        if link._credits <= 0 and not link.can_send(  # type: ignore[operator]
            now
        ):
            return
        worm = ingress.bypass_worm
        assert worm is not None
        in_link = self.in_links[feed.input_port]
        self._stirred = True
        if self._commit:
            run = _bypass_run(ingress, in_link, link, now)
            if run:
                link.send_span(now, worm, consumed, run)
                ingress.consumed = consumed + run
                if in_link is not None:
                    in_link.return_credit_ramp(now, run)
                self.sim.progress += run
                self.wake_at(now + run)
                return
        link.send_granted(now, worm, consumed)
        # inlined FIFO-slot consume, as in _write_central_buffer
        consumed += 1
        ingress.consumed = consumed
        if in_link is not None:
            in_link.return_credit(now)
        if self._obs:
            self._c_forwarded.inc()
        self.sim.progress += 1
        if consumed == ingress.worm.size_flits:
            self._pop_front(feed.input_port)
            self._out_current[port] = None
            self._egress_busy &= ~(1 << port)

    def _inside_runs(self, now: int) -> bool:
        # sleep rule: no queued or stored egress, every busy output a
        # bypass feed whose link slot is reserved past `now`, and the fed
        # worm alone in its FIFO — and no occupied FIFO left unfed.  Each
        # run's own wake resumes it; anything new arrives through a link
        # hook, and a second worm behind a fed one ends the sleep (its
        # header completion must be stamped at its own cycle).
        if (
            not self._commit
            or self._egress_wanted
            or self._route_pending
            or self._cb_feed
        ):
            return False
        out_current = self._out_current
        out_links = self.out_links
        inflows = self._inflow
        fed = 0
        for port in PORTS_OF[self._egress_busy]:
            feed = out_current[port]
            if (
                type(feed) is not _BypassFeed
                or out_links[port]._last_send_cycle <= now  # type: ignore[union-attr]
                or len(inflows[feed.input_port]) != 1
            ):
                return False
            fed |= 1 << feed.input_port
        return fed == self._ingress_occupied

    # ------------------------------------------------------------------
    # introspection: the one-flit-per-cycle timeline (cf. the packed NI)
    # ------------------------------------------------------------------
    def fifo_occupancy(self, port: int) -> int:
        # during a committed run `consumed` is ahead of the flits that
        # have left by now, and flits that landed while the switch slept
        # wait untaken in the link: count both where the per-flit
        # timeline has them — in the FIFO
        occupancy = super().fifo_occupancy(port)
        now = self.sim.now
        in_link = self.in_links[port]
        if in_link is not None:
            occupancy += in_link._in_flight.arrived(now)
        inflow = self._inflow[port]
        if inflow and inflow[0].bypass_port is not None:
            link = self.out_links[inflow[0].bypass_port]
            assert link is not None
            occupancy += max(0, link._last_send_cycle - now)
        return occupancy
