"""The central-buffer switch architecture (paper section 4).

Modelled on the IBM SP2 High Performance Switch enhanced for
multidestination worms:

* each input port has a small synchronisation FIFO;
* a dynamically shared, chunked central buffer implements output queuing:
  packets destined to a busy output are written into the buffer and
  linked onto that output's queue;
* a unicast packet whose output is idle *bypasses* the central buffer and
  cuts through directly (the SP2 fast path);
* a multidestination worm is admitted only after reserving central-buffer
  space for its entire length (the paper's deadlock-freedom rule), is
  written into the buffer exactly once, and is read independently by one
  branch cursor per requested output port (asynchronous replication);
  chunks are freed as the slowest branch drains them;
* buffer bandwidth is capped at ``cb_write_bandwidth`` flit-writes and
  ``cb_read_bandwidth`` flit-reads per cycle, arbitrated round-robin
  (the flit-wide-RAM alternative of ref [33]).

Flits are never physically copied into Python lists: a worm's flits
arrive in order, so an input port tracks ``received``/``consumed``
cursors and materialises :class:`~repro.flits.flit.Flit` objects on
transmission.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

from repro.errors import ProtocolError
from repro.flits.flit import Flit
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.routing.table import SwitchRoutingTable
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switches.arbiter import RoundRobinArbiter
from repro.switches.base import SwitchBase, SwitchSettings
from repro.switches.chunks import (
    BranchCursor,
    CentralBufferPool,
    StoredPacket,
)
from repro.switches.ports import PORTS_OF


class _IngressState(enum.Enum):
    """Lifecycle of a worm arriving at an input port."""

    ARRIVING = "arriving"          # header not yet complete
    ROUTE_WAIT = "route_wait"      # header complete, routing delay running
    ADMIT_WAIT = "admit_wait"      # multidestination reservation queued
    STREAM_CB = "stream_cb"        # flits flowing into the central buffer
    STREAM_BYPASS = "stream_bypass"  # flits pulled directly by the output


class _Ingress:
    """Per-worm arrival state at one input port."""

    __slots__ = (
        "worm",
        "received",
        "consumed",
        "header_done_cycle",
        "state",
        "stored",
        "bypass_worm",
        "bypass_port",
    )

    def __init__(self, worm: Worm) -> None:
        self.worm = worm
        self.received = 0
        self.consumed = 0
        self.header_done_cycle: Optional[int] = None
        self.state = _IngressState.ARRIVING
        self.stored: Optional[StoredPacket] = None
        self.bypass_worm: Optional[Worm] = None
        self.bypass_port: Optional[int] = None

    @property
    def complete(self) -> bool:
        """True once every flit has left the input FIFO."""
        return self.consumed == self.worm.size_flits


class _BypassFeed:
    """An output port streaming a unicast worm straight from an input FIFO."""

    __slots__ = ("input_port", "ingress")

    def __init__(self, input_port: int, ingress: _Ingress) -> None:
        self.input_port = input_port
        self.ingress = ingress


class CentralBufferSwitch(SwitchBase):
    """SP2-style shared-buffer switch with multidestination support."""

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
        quota_pool = CentralBufferPool(
            capacity_flits=settings.central_buffer_flits,
            chunk_flits=settings.chunk_flits,
            num_inputs=num_ports,
            quota_chunks=-(-settings.max_packet_flits // settings.chunk_flits),
        )
        self.pool = quota_pool
        self._inflow: List[Deque[_Ingress]] = [deque() for _ in range(num_ports)]
        #: per-output FIFO of branch cursors queued in the central buffer
        self._out_queue: List[Deque[BranchCursor]] = [
            deque() for _ in range(num_ports)
        ]
        self._out_current: List[Optional[object]] = [None] * num_ports
        self._write_arbiter = RoundRobinArbiter(num_ports)
        self._read_arbiter = RoundRobinArbiter(num_ports)
        #: stored packets indexed by branch cursor identity
        self._stored_of_cursor: dict = {}
        #: routing decisions parked while a reservation waits
        self._pending_requests: dict = {}
        # port-activity masks (see repro.switches.ports), kept at the
        # point of state change: bit p of each mirrors `_inflow[p]`
        # non-empty / `_out_queue[p]` non-empty / `_out_current[p]` set.
        # As whole-switch tests they skip phases when nothing is inside
        # the switch (and, on the active-set kernel, decide whether to
        # re-arm at all); the packed phases also iterate them
        self._ingress_occupied = 0
        self._egress_wanted = 0
        self._egress_busy = 0
        # FIFO-front state masks, same discipline: bit p of
        # `_route_pending` means the worm at the front of `_inflow[p]`
        # awaits routing or admission (phase 2 has work), bit p of
        # `_cb_feed` that it streams into the central buffer (phase 3
        # may).  A front worm with neither bit is still arriving or is
        # pulled by a bypass feed
        self._route_pending = 0
        self._cb_feed = 0
        # set whenever a tick changes any switch state (flit accepted,
        # route/admit decision, write, activation, send); a blocked tick
        # that stays False may sleep instead of re-arming — see tick()
        self._stirred = False
        #: reused drain buffer — the per-cycle receive loop is allocation-free
        self._rx_scratch: List[Flit] = []
        # observability: shared process-wide counters (no-ops unless an
        # enabled registry was passed in; `_obs` keeps the hot path to a
        # single boolean test)
        self._obs = metrics.enabled
        self._c_forwarded = metrics.counter("switch.flits_forwarded")
        self._c_replicated = metrics.counter("switch.chunks_replicated")
        self._c_blocked = metrics.counter("switch.blocked_cycles")

    # ------------------------------------------------------------------
    # SwitchBase contract
    # ------------------------------------------------------------------
    def input_credit_depth(self, port: int) -> int:
        return self.settings.input_fifo_depth

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self._stirred = False
        self._receive(now)
        if self._route_pending:
            self._route_and_admit(now)
        if self._cb_feed:
            self._write_central_buffer(now)
        if self._egress_busy or self._egress_wanted:
            self._drive_outputs(now)
        # active-set re-arm: ingresses cover arriving/routing/admission-
        # waiting worms; busy outputs and queued branches cover everything
        # held in the central buffer (a stored packet always has at least
        # one live branch cursor until fully drained).  A fully idle
        # switch is woken again by its in-links' arrival hooks.
        #
        # Blocked-sleep: a non-empty switch whose tick changed *nothing*
        # can only be unblocked by an arrival (in-link hook), a maturing
        # credit (out-link hook), its own routing delay expiring (exact
        # wake computed below), or chunk space freed by its own reads —
        # which are sends, hence stirring.  So an un-stirred tick may skip
        # the re-arm entirely.  Exception: with metrics enabled the
        # blocked-cycles counter must increment every blocked cycle, as it
        # does on the dense kernel, so observed runs keep polling.
        #
        # Committed-sleep: a stirred switch whose every worm is inside a
        # committed bypass run (packed plane, see `_inside_runs`) has
        # nothing to do before the run's own wake or the next arrival.
        if self._ingress_occupied or self._egress_busy or self._egress_wanted:
            if self._stirred or self._obs:
                if not self._inside_runs(now):
                    self.wake_at(now + 1)
            else:
                wake = self._blocked_wake()
                if wake is not None:
                    self.wake_at(wake)

    def _blocked_wake(self) -> Optional[int]:
        """Earliest routing-delay expiry among blocked FIFO-head worms.

        The only *time*-driven transition a sleeping switch could miss:
        every other unblocking event fires a link wake hook.
        """
        delay = self.settings.routing_delay
        best: Optional[int] = None
        inflows = self._inflow
        for port in PORTS_OF[self._route_pending]:
            ingress = inflows[port][0]
            if ingress.state is _IngressState.ROUTE_WAIT:
                assert ingress.header_done_cycle is not None
                cycle = ingress.header_done_cycle + delay
                if best is None or cycle < best:
                    best = cycle
        return best

    def _inside_runs(self, now: int) -> bool:
        """True when every worm in the switch is inside a committed run
        that extends past ``now``.  The object plane commits none."""
        return False

    # -- phase 1: absorb link arrivals into the input FIFOs -------------
    def _receive(self, now: int) -> None:
        scratch = self._rx_scratch
        for port, link in enumerate(self.in_links):
            if link is None or not link.pending_arrival(now):
                continue
            del scratch[:]
            link.receive_into(now, scratch)
            for flit in scratch:
                self._accept_flit(port, flit, now)

    def _accept_flit(self, port: int, flit: Flit, now: int) -> None:
        inflow = self._inflow[port]
        ingress = inflow[-1] if inflow else None
        if ingress is None or ingress.received == ingress.worm.size_flits:
            if not flit.is_head:
                raise ProtocolError(
                    f"{self.name}.in{port}: body flit {flit!r} without head"
                )
            ingress = _Ingress(flit.worm)
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
            if ingress.state is _IngressState.ARRIVING:
                ingress.state = _IngressState.ROUTE_WAIT
                if inflow[0] is ingress:
                    self._route_pending |= 1 << port
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.name, "flit_in", port=port, flit=repr(flit)
            )

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

    def _try_route(self, port: int, ingress: _Ingress, now: int) -> None:
        assert ingress.header_done_cycle is not None
        if now < ingress.header_done_cycle + self.settings.routing_delay:
            return
        self._stirred = True
        requests = self.compute_requests(ingress.worm)
        if ingress.worm.is_multidestination:
            ingress.stored = StoredPacket(
                self.pool, port, ingress.worm.size_flits, reserve_all=True
            )
            ingress.state = _IngressState.ADMIT_WAIT
            self._pending_requests[id(ingress)] = requests
            self._try_admit(port, ingress, now)
            return
        # unicast: single branch
        request = requests[0]
        child = ingress.worm.branch(request.destinations, request.descending)
        out_port = request.port
        if (
            self._out_current[out_port] is None
            and not self._out_queue[out_port]
        ):
            ingress.bypass_worm = child
            ingress.bypass_port = out_port
            ingress.state = _IngressState.STREAM_BYPASS
            self._route_pending &= ~(1 << port)
            self._out_current[out_port] = _BypassFeed(port, ingress)
            self._egress_busy |= 1 << out_port
            if self.tracer.enabled:
                self.tracer.emit(
                    now, self.name, "bypass", inp=port, out=out_port,
                    packet=ingress.worm.packet.packet_id,
                    waited=now - ingress.header_done_cycle
                    - self.settings.routing_delay,
                )
        else:
            stored = StoredPacket(
                self.pool, port, ingress.worm.size_flits, reserve_all=False
            )
            cursor = stored.add_branch(child, out_port)
            self._stored_of_cursor[id(cursor)] = stored
            self._out_queue[out_port].append(cursor)
            self._egress_wanted |= 1 << out_port
            ingress.stored = stored
            self._stream_to_buffer(port, ingress)
            if self.tracer.enabled:
                self.tracer.emit(
                    now, self.name, "queue_cb", inp=port, out=out_port,
                    packet=ingress.worm.packet.packet_id,
                    waited=now - ingress.header_done_cycle
                    - self.settings.routing_delay,
                )

    def _stream_to_buffer(self, port: int, ingress: _Ingress) -> None:
        """Routing (and admission) of the FIFO-front worm is done: its
        flits now flow into the central buffer."""
        ingress.state = _IngressState.STREAM_CB
        self._route_pending &= ~(1 << port)
        self._cb_feed |= 1 << port

    def _try_admit(self, port: int, ingress: _Ingress, now: int) -> None:
        stored = ingress.stored
        assert stored is not None
        if not stored.try_admit(now):
            if self._obs:
                self._c_blocked.inc()
            return
        self._stirred = True
        requests = self._pending_requests.pop(id(ingress))
        if self._obs and len(requests) > 1:
            self._c_replicated.inc(
                self.pool.chunks_for(ingress.worm.size_flits)
                * (len(requests) - 1)
            )
        for request in requests:
            child = ingress.worm.branch(request.destinations, request.descending)
            cursor = stored.add_branch(child, request.port)
            self._stored_of_cursor[id(cursor)] = stored
            self._out_queue[request.port].append(cursor)
            self._egress_wanted |= 1 << request.port
        self._stream_to_buffer(port, ingress)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.name, "admit_multidest",
                inp=port, branches=len(requests),
                packet=ingress.worm.packet.packet_id,
                waited=now - ingress.header_done_cycle
                - self.settings.routing_delay,
            )

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
        if ingress.complete:
            self._pop_front(port)

    def _pop_front(self, port: int) -> None:
        """The FIFO-front worm has left input ``port`` entirely: expose
        the worm behind it, if any, to routing."""
        inflow = self._inflow[port]
        inflow.popleft()
        bit = 1 << port
        self._cb_feed &= ~bit
        if not inflow:
            self._ingress_occupied &= ~bit
        elif inflow[0].state is _IngressState.ROUTE_WAIT:
            self._route_pending |= bit

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
                stored = self._stored_of_cursor[id(cursor)]
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
            stored = self._stored_of_cursor[id(cursor)]
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
                del self._stored_of_cursor[id(cursor)]
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
        if ingress.complete:
            self._out_current[port] = None
            self._egress_busy &= ~(1 << port)

    # ------------------------------------------------------------------
    # introspection for tests and metrics
    # ------------------------------------------------------------------
    def fifo_occupancy(self, port: int) -> int:
        """Flits held in an input FIFO once the current cycle's ticks
        are done."""
        return sum(i.received - i.consumed for i in self._inflow[port])

    def idle(self) -> bool:
        """True when no worm is anywhere inside the switch."""
        return (
            all(not q for q in self._inflow)
            and all(not q for q in self._out_queue)
            and all(c is None for c in self._out_current)
            and self.pool.used_chunks == 0
        )
