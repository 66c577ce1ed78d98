"""The per-flit reference data plane the differential suites compare
production against.

The production switches and NI (:mod:`repro.switches.central_buffer`,
:mod:`repro.switches.input_buffer`, :mod:`repro.host.interface`) move
spans of flit coordinates, iterate port-activity masks and commit runs
of flits ahead of time.  Each class here subclasses its production class
and replaces only what moves a flit or scans ports with the plainest
thing that could be right: poll every in-link, materialise one
:class:`~repro.flits.flit.Flit` per arrival, scan ``range(num_ports)``
in every phase, arbitrate with the one-grant-at-a-time
:meth:`~repro.switches.arbiter.RoundRobinArbiter.grant_up_to`, send one
flit object per call.  Every *decision* — routing, admission, output
grants, lock-step replication, slot recycling, the skeleton ``tick`` and
its sleep rule — is inherited, so the two planes can only differ in how
flits move, which is what ``tests/sim/test_packed_differential.py``,
``tests/switches/test_span_commit.py`` and
``tests/obs/test_plane_telemetry.py`` hold bit-identical.  Nothing here
sends a span, so no run is ever committed and the inherited
``_inside_runs`` / ``_tx_end`` bookkeeping stays at rest.

Production never imports this module: :func:`repro.network.builder.
build_network` does, and only for ``SimulationConfig(packed=False)``.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.flits.flit import Flit
from repro.host.interface import HostInterface
from repro.switches.base import SwitchBase
from repro.switches.central_buffer import (
    CentralBufferSwitch,
    _BypassFeed,
    _Ingress,
    _IngressState,
)
from repro.switches.input_buffer import InputBufferSwitch


class _FlitArrival(SwitchBase):
    """Worm arrival one :class:`Flit` at a time, for both reference
    switches (production: ``SwitchBase._receive`` / ``_accept_span``)."""

    def _receive(self, now: int) -> None:
        for port, link in enumerate(self.in_links):
            if link is None or not link.pending_arrival(now):
                continue
            for flit in link.receive(now):
                self._accept_flit(port, flit, now)

    def _accept_flit(self, port: int, flit: Flit, now: int) -> None:
        """One flit joins the worm arriving at ``port``."""
        inflow = self._inflow[port]
        ingress = inflow[-1] if inflow else None
        if ingress is None or ingress.received == ingress.worm.size_flits:
            if not flit.is_head:
                raise ProtocolError(
                    f"{self.name}.in{port}: body flit {flit!r} without head"
                )
            ingress = self.ingress_type(flit.worm)
            inflow.append(ingress)
            self._ingress_occupied |= 1 << port
        if flit.worm is not ingress.worm or flit.index != ingress.received:
            raise ProtocolError(
                f"{self.name}.in{port}: out-of-order flit {flit!r} "
                f"(expected index {ingress.received} of {ingress.worm!r})"
            )
        ingress.received += 1
        self._stirred = True
        if ingress.received == ingress.worm.header_flits:
            ingress.header_done_cycle = now
            if inflow[0] is ingress:
                self._route_pending |= 1 << port
            self._header_complete(ingress)
        if self.tracer is not None:
            self.tracer.emit(
                now, self.name, "flit_in", port=port, flit=repr(flit)
            )


class ReferenceCentralBufferSwitch(_FlitArrival, CentralBufferSwitch):
    """The central-buffer switch, one ``Flit`` object per move."""

    # -- phase 2: route the FIFO-front worm and admit it -----------------
    def _route_and_admit(self, now: int) -> None:
        for port in range(self.num_ports):
            inflow = self._inflow[port]
            if not inflow:
                continue
            ingress = inflow[0]
            if ingress.state is _IngressState.ROUTE_WAIT:
                self._try_route(port, ingress, now)
            if ingress.state is _IngressState.ADMIT_WAIT:
                self._try_admit(port, ingress, now)

    # -- phase 3: move flits from input FIFOs into the central buffer ----
    def _write_central_buffer(self, now: int) -> None:
        candidates = []
        for port in range(self.num_ports):
            inflow = self._inflow[port]
            if not inflow:
                continue
            ingress = inflow[0]
            if (
                ingress.state is _IngressState.STREAM_CB
                and ingress.consumed < ingress.received
            ):
                candidates.append(port)
        winners = self._write_arbiter.grant_up_to(
            candidates, self.settings.cb_write_bandwidth
        )
        for port in winners:
            ingress = self._inflow[port][0]
            stored = ingress.stored
            assert stored is not None
            if not stored.ensure_write_space(now):
                if self._obs:
                    self._c_blocked.inc()
                # when more inputs competed than the write bandwidth
                # admits, next cycle's rotated grant may reach an input
                # whose own quota still has room — keep polling
                if len(candidates) > self.settings.cb_write_bandwidth:
                    self._stirred = True
                continue  # central buffer full: stall this input
            stored.write_flit()
            self._stirred = True
            self._consume_fifo_slot(port, ingress, now)
            self.sim.note_progress()

    def _consume_fifo_slot(self, port: int, ingress: _Ingress, now: int) -> None:
        ingress.consumed += 1
        link = self.in_links[port]
        if link is not None:
            link.return_credit(now)
        if ingress.consumed == ingress.worm.size_flits:
            self._pop_front(port)

    # -- phase 4: drive the output ports ---------------------------------
    def _drive_outputs(self, now: int) -> None:
        # activate queued branches on idle outputs
        for port in range(self.num_ports):
            if self._out_current[port] is None and self._out_queue[port]:
                self._out_current[port] = self._out_queue[port].popleft()
                if not self._out_queue[port]:
                    self._egress_wanted &= ~(1 << port)
                self._egress_busy |= 1 << port
                self._stirred = True
        # bypass feeds move independently of central-buffer bandwidth
        read_candidates = []
        for port in range(self.num_ports):
            current = self._out_current[port]
            if current is None:
                continue
            if isinstance(current, _BypassFeed):
                self._advance_bypass(port, current, now)
            else:
                cursor = current
                stored = cursor.stored
                link = self.out_links[port]
                if (
                    link is not None
                    and stored.readable(cursor)
                    and link.can_send(now)
                ):
                    read_candidates.append(port)
        winners = self._read_arbiter.grant_up_to(
            read_candidates, self.settings.cb_read_bandwidth
        )
        for port in winners:
            cursor = self._out_current[port]
            stored = cursor.stored
            link = self.out_links[port]
            assert link is not None
            flit = Flit(cursor.worm, cursor.read)
            link.send(now, flit)
            self._stirred = True
            stored.branch_read(cursor, now)
            if self._obs:
                self._c_forwarded.inc()
            self.sim.note_progress()
            if cursor.read == stored.total_flits:
                self._out_current[port] = None
                self._egress_busy &= ~(1 << port)

    def _advance_bypass(self, port: int, feed: _BypassFeed, now: int) -> None:
        ingress = feed.ingress
        link = self.out_links[port]
        if link is None:
            raise ProtocolError(f"{self.name}: bypass to unwired port {port}")
        if ingress.consumed >= ingress.received or not link.can_send(now):
            return
        assert ingress.bypass_worm is not None
        flit = Flit(ingress.bypass_worm, ingress.consumed)
        link.send(now, flit)
        self._stirred = True
        self._consume_fifo_slot(feed.input_port, ingress, now)
        if self._obs:
            self._c_forwarded.inc()
        self.sim.note_progress()
        if ingress.consumed == ingress.worm.size_flits:
            self._out_current[port] = None
            self._egress_busy &= ~(1 << port)


class ReferenceInputBufferSwitch(_FlitArrival, InputBufferSwitch):
    """The input-buffer switch, one ``Flit`` object per move."""

    # -- phase 2: decode the worm at each buffer head ----------------------
    def _route_heads(self, now: int) -> None:
        for port in range(self.num_ports):
            inflow = self._inflow[port]
            if inflow:
                self._route_head(port, inflow[0], now)

    # -- phase 3: grant outputs and move flits -----------------------------
    def _drive_outputs(self, now: int) -> None:
        for port in range(self.num_ports):
            if self._current[port] is None and self._waiting[port]:
                winner = self._grant_arbiters[port].grant(self._waiting[port])
                if winner is not None:
                    self._grant_output(port, winner)
        lockstep_done = set()
        for port in range(self.num_ports):
            branch = self._current[port]
            if branch is None:
                continue
            link = self.out_links[port]
            if link is None:
                raise ProtocolError(f"{self.name}: active branch on unwired "
                                    f"output port {port}")
            ingress = branch.ingress
            if self._synchronous and len(ingress.branches) > 1:
                if id(ingress) not in lockstep_done:
                    lockstep_done.add(id(ingress))
                    self._advance_lockstep(ingress, now)
                continue
            if branch.read >= ingress.received or not link.can_send(now):
                if (
                    self._obs
                    and branch.read < ingress.received
                    and not link.can_send(now)
                ):
                    self._c_blocked.inc()
                continue
            link.send(now, Flit(branch.worm, branch.read))
            branch.read += 1
            self._stirred = True
            if self._obs:
                self._c_forwarded.inc()
            self.sim.note_progress()
            self._recycle_slots(branch.input_port, ingress, now)
            if branch.read == branch.worm.size_flits:
                self._current[port] = None
                self._egress_busy &= ~(1 << port)


class ReferenceHostInterface(HostInterface):
    """The host NI, one ``Flit`` object per tick each way."""

    # ``tick`` is inherited: a "span" here is one flit, so the NI comes
    # back the cycle after every send, and ejection is purely
    # arrival-driven — the in-link's arrival hook wakes us per flit

    def _eject_spans(self, now: int) -> None:
        link = self.in_link
        if link is None or not link.pending_arrival(now):
            return
        for flit in link.receive(now):
            link.return_credit(now)
            self._absorb(flit, now)

    def _absorb(self, flit: Flit, now: int) -> None:
        if self._rx_worm is None:
            if not flit.is_head:
                raise ProtocolError(
                    f"{self.name}: body flit {flit!r} without head"
                )
            worm = flit.worm
            if not worm.destinations.is_singleton() or (
                self.host_id not in worm.destinations
            ):
                raise ProtocolError(
                    f"{self.name}: received worm addressed to "
                    f"{worm.destinations!r}"
                )
            self._rx_worm = worm
            self._rx_count = 0
        if flit.worm is not self._rx_worm or flit.index != self._rx_count:
            raise ProtocolError(
                f"{self.name}: out-of-order flit {flit!r} "
                f"(expected index {self._rx_count})"
            )
        self._rx_count += 1
        self._ejected += 1
        if self._obs:
            self._c_ejected.inc()
        self.sim.note_progress()
        if flit.is_tail:
            worm = self._rx_worm
            self._rx_worm = None
            if self.tracer is not None:
                self.tracer.emit(
                    now, self.name, "packet_delivered",
                    packet=worm.packet.packet_id,
                )
            if self._on_delivery is not None:
                self._on_delivery(worm, now)

    def _inject_span(self, now: int) -> int:
        """Push the next flit out; returns the flits sent (0: blocked)."""
        if self.out_link is None or not self._inject:
            return 0
        worm = self._inject[0]
        if not self.out_link.can_send(now):
            return 0
        if self._inject_cursor == 0 and worm.packet.injected_cycle is None:
            worm.packet.injected_cycle = now
            if self.tracer is not None:
                self.tracer.emit(
                    now, self.name, "inject_start",
                    packet=worm.packet.packet_id,
                    flits=worm.size_flits,
                    created=worm.packet.message.created_cycle,
                )
        self.out_link.send(now, Flit(worm, self._inject_cursor))
        self._inject_cursor += 1
        self.flits_injected += 1
        if self._obs:
            self._c_injected.inc()
        self.sim.note_progress()
        if self._inject_cursor == worm.size_flits:
            self._inject.popleft()
            self._inject_cursor = 0
        return 1
