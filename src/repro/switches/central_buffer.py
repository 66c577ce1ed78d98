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

Worm arrival, the routing-delay wait and ``tick`` with its sleep rule
are :class:`~repro.switches.base.SwitchBase`'s; this module is what the
paper says is different about a central-buffer switch.
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
from repro.switches.base import Ingress, SwitchBase, SwitchSettings
from repro.switches.chunks import (
    BranchCursor,
    CentralBufferPool,
    StoredPacket,
)


class _IngressState(enum.Enum):
    """Lifecycle of a worm arriving at an input port."""

    ARRIVING = "arriving"          # header not yet complete
    ROUTE_WAIT = "route_wait"      # header complete, routing delay running
    ADMIT_WAIT = "admit_wait"      # multidestination reservation queued
    STREAM_CB = "stream_cb"        # flits flowing into the central buffer
    STREAM_BYPASS = "stream_bypass"  # flits pulled directly by the output


class _Ingress(Ingress):
    """A worm in an input FIFO: how far it has drained, and where to."""

    __slots__ = ("consumed", "state", "stored", "bypass_worm", "bypass_port")

    def __init__(self, worm: Worm) -> None:
        super().__init__(worm)
        self.consumed = 0
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

    ingress_type = _Ingress

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
        # the skeleton's egress masks mirror `_out_queue[p]` non-empty
        # (wanted) and `_out_current[p]` set (busy); a route-pending
        # front worm is in ROUTE_WAIT or ADMIT_WAIT.  One more FIFO-front
        # mask, same discipline: bit p of `_cb_feed` means the front worm
        # of `_inflow[p]` streams into the central buffer.  A front worm
        # with neither bit is still arriving or pulled by a bypass feed
        self._cb_feed = 0
        self._c_replicated = metrics.counter("switch.chunks_replicated")

    # ------------------------------------------------------------------
    # SwitchBase contract
    # ------------------------------------------------------------------
    def input_credit_depth(self, port: int) -> int:
        return self.settings.input_fifo_depth

    # ------------------------------------------------------------------
    # per-cycle behaviour (phase 1, worm arrival, is the skeleton's)
    # ------------------------------------------------------------------
    def _phases(self, now: int) -> None:
        if self._route_pending:
            self._route_and_admit(now)
        if self._cb_feed:
            self._write_central_buffer(now)
        if self._egress_busy or self._egress_wanted:
            self._drive_outputs(now)

    def _header_complete(  # type: ignore[override]
        self, ingress: _Ingress
    ) -> None:
        ingress.state = _IngressState.ROUTE_WAIT

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
        self._cb_feed &= ~(1 << port)
        super()._pop_front(port)

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
