"""Packed-data-plane variant of the central-buffer switch.

Same microarchitecture as
:class:`~repro.switches.central_buffer.CentralBufferSwitch` — the
routing, admission and buffering phases are inherited unchanged — but
the flit-movement phases are rewritten against the packed link API:
spans in (:meth:`~repro.switches.link.Link.receive_span`), flit
coordinates out (:meth:`~repro.switches.link.Link.send_packed`), and
central-buffer bandwidth arbitrated with the single-rotation
:meth:`~repro.switches.arbiter.RoundRobinArbiter.grant_batch`.  No
:class:`~repro.flits.flit.Flit` object is ever constructed here
(enforced by reprolint rule REP008); trace events use
:func:`~repro.flits.packed.flit_repr`.

Every observable is bit-identical to the object path: a span accept
updates the same ingress cursors the per-flit accept would, and switch
egress is still one flit per output per cycle, so credits, arrival
cycles, arbiter pointers and pool occupancy evolve identically (see
``tests/sim/test_packed_differential.py``).  Beyond the span moves,
the rewritten phases shave constant factors the object path pays per
flit: the bandwidth caps are cached at construction, the stored packet
of each active output is cached per port instead of re-resolved through
the ``id(cursor)`` registry twice per cycle, and the FIFO-slot consume
and kernel progress bookkeeping are inlined into the phase loops.

No phase scans the whole port range: each iterates the set bits of the
port-activity mask that names its work (see :mod:`repro.switches.ports`),
in ascending port order, so a tick costs in proportion to the ports
that have something to do.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError
from repro.flits.packed import flit_repr
from repro.flits.worm import Worm
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
from repro.switches.ports import PORTS_OF, MaskedReceive

_ARRIVING = _IngressState.ARRIVING
_ROUTE_WAIT = _IngressState.ROUTE_WAIT
_ADMIT_WAIT = _IngressState.ADMIT_WAIT
_STREAM_CB = _IngressState.STREAM_CB


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

    # -- phase 1: absorb link arrivals as spans (MaskedReceive) ----------
    def _accept_span(
        self, port: int, worm: Worm, start: int, count: int, now: int
    ) -> None:
        inflow = self._inflow[port]
        ingress = inflow[-1] if inflow else None
        if ingress is None or ingress.received == ingress.worm.size_flits:
            if start != 0:
                raise ProtocolError(
                    f"{self.name}.in{port}: body flit "
                    f"{flit_repr(worm, start)} without head"
                )
            ingress = _Ingress(worm)
            inflow.append(ingress)
            self._ingress_occupied |= 1 << port
        if worm is not ingress.worm or start != ingress.received:
            raise ProtocolError(
                f"{self.name}.in{port}: out-of-order flit "
                f"{flit_repr(worm, start)} "
                f"(expected index {ingress.received} of {ingress.worm!r})"
            )
        ingress.received = start + count
        self._stirred = True
        # the object path stamps header completion at the cycle of the
        # tick that drains the completing flit — for a span that crosses
        # the header boundary that is exactly this tick's cycle
        if start < worm.header_flits <= start + count:
            ingress.header_done_cycle = now
            if ingress.state is _ARRIVING:
                ingress.state = _ROUTE_WAIT
        if self.tracer.enabled:
            for index in range(start, start + count):
                self.tracer.emit(
                    now, self.name, "flit_in",
                    port=port, flit=flit_repr(worm, index),
                )

    # -- phase 2: route the FIFO-front worm and admit it -----------------
    def _route_and_admit(self, now: int) -> None:
        inflows = self._inflow
        for port in PORTS_OF[self._ingress_occupied]:
            ingress = inflows[port][0]
            if ingress.state is _ROUTE_WAIT:
                self._try_route(port, ingress, now)
            if ingress.state is _ADMIT_WAIT:
                self._try_admit(port, ingress, now)

    # -- phase 3: move flits from input FIFOs into the central buffer ----
    def _write_central_buffer(self, now: int) -> None:
        inflows = self._inflow
        candidates = []
        for port in PORTS_OF[self._ingress_occupied]:
            ingress = inflows[port][0]
            if (
                ingress.state is _STREAM_CB
                and ingress.consumed < ingress.received
            ):
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
                inflow = inflows[port]
                inflow.popleft()
                if not inflow:
                    self._ingress_occupied &= ~(1 << port)
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
            # inlined single-branch chunk release: _release_consumed only
            # frees chunks at chunk boundaries or on full consumption, so
            # skip the call on every other flit (multi-branch packets
            # keep the slowest-branch logic in branch_read)
            if len(stored.branches) == 1:
                if read == stored.total_flits or not read % chunk:
                    stored._release_consumed(now)
            else:
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
        if consumed >= ingress.received or link._last_send_cycle >= now:
            return
        # inlined Link.can_send, as in the read-candidate scan
        if link._credits <= 0 and not link.can_send(  # type: ignore[operator]
            now
        ):
            return
        worm = ingress.bypass_worm
        assert worm is not None
        link.send_granted(now, worm, consumed)
        self._stirred = True
        # inlined FIFO-slot consume, as in _write_central_buffer
        consumed += 1
        ingress.consumed = consumed
        in_link = self.in_links[feed.input_port]
        if in_link is not None:
            in_link.return_credit(now)
        if self._obs:
            self._c_forwarded.inc()
        self.sim.progress += 1
        if consumed == ingress.worm.size_flits:
            inflow = self._inflow[feed.input_port]
            inflow.popleft()
            if not inflow:
                self._ingress_occupied &= ~(1 << feed.input_port)
            self._out_current[port] = None
            self._egress_busy &= ~(1 << port)
