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

Flits are never physically copied, nor made into objects: a worm's
flits arrive in order as spans, so an input port tracks
``received``/``consumed`` cursors and flits leave as coordinates
(:meth:`~repro.switches.link.Link.send_granted`) or as a whole run of
them (below).  No phase scans the whole port range: each iterates the
set bits of the port-activity mask that names its work (see
:mod:`repro.switches.ports`), in ascending port order, so a tick costs
in proportion to the ports that have something to do, and buffer
bandwidth is arbitrated with the single-rotation
:meth:`~repro.switches.arbiter.RoundRobinArbiter.grant_batch`.

**Committed runs.**  A mover that contends for nothing can be delayed
only by the arrival of its next flit or by a missing credit, so the
flits whose cycles are already determined
(:func:`~repro.switches.base.committed_run`, the one run computation:
a supply cut to a drain window) move in one call, the switch wakes
itself when the run ends, and a switch whose every worm is inside a run
does not re-arm in between (``_inside_runs``).  Nor does the worm's next
record wake it while it lands inside the run: a bypass feed or writer
whose run does not carry the tail declares it on its in-link
(:meth:`~repro.switches.link.Link.hold`), and the run's own wake takes
what landed.  The tail is a member
like any other flit.  What its departure does — the output freed, the
input FIFO popped, the last chunk freed — is a dated release
(:meth:`~repro.switches.base.SwitchBase._release_at`) settled by the
first tick after the run's last cycle, and the switch wakes for it only
while a branch or a worm waits on it.  Three movers here have that
shape:

* a *bypass feed* (:meth:`CentralBufferSwitch._advance_bypass`): once
  its next flit has landed (:meth:`~repro.switches.base.Ingress.
  landed_by`), the flits taken off the in-link plus the dated arrivals
  of a head record still in flight, cut to the out-link's credit
  window — one
  :meth:`~repro.switches.link.Link.send_span`, the FIFO slots back as
  one future-dated :meth:`~repro.switches.link.Link.return_credit_ramp`.
  Toward a host NI that never throttles nothing refuses the feed, so it
  is a *drain* of its input FIFO (below);
* a *writer* (:meth:`CentralBufferSwitch._write_central_buffer`): the
  same supply, cut to the write space of the stored packet
  (:meth:`~repro.switches.chunks.StoredPacket.write_space`) — the whole
  remainder of an admitted multidestination worm (the acceptance rule
  is the commit condition); the remainder of a *covered* unicast, one
  whose input's free quota held every chunk it still needed at its
  first write (:meth:`~repro.switches.chunks.StoredPacket.cover`), whose
  later chunks no one else can take; else the rest of the current chunk
  of a unicast, whose next ``try_take`` is made by the single-flit path
  on the cycle it is due.  The write is dated
  (:meth:`~repro.switches.chunks.StoredPacket.write_run`), and so is the
  take of each chunk a covered run opens — where a dated take is
  applied, and why a run stops short of a cycle another input's take
  holds, is the :mod:`repro.switches.chunks` timeline.  The slots go
  back as one ramp.
  An input inside a write run asks the write arbiter every cycle up to
  its last write, and the pointer is moved through the cycles the
  switch sleeps (``_write_until``).  The writer of an admitted or a
  covered worm, granted every cycle, is a drain (below);
* a *branch cursor* (the read half of
  :meth:`CentralBufferSwitch._drive_outputs`): once its next flit is
  written on the timeline, everything written behind it — dated ahead or
  not — is there by the time the cursor gets to it, so the supply is
  ``flits_written - read`` cut to the credit window.  Each chunk end
  inside the run is registered with the cycle it is crossed
  (:meth:`~repro.switches.chunks.StoredPacket.crossed`), the tail's
  last chunk included; the chunk goes back at the cycle the last branch
  crosses, on the switch's queue of dated effects while that cycle is
  ahead, and such a dated release wakes a switch that found the pool
  short (``_blocked_wake``).

**Drains.**  A mover that takes each flit of its worm on the cycle it
lands, or the cycle after the one before if later, through to the
tail, declares itself the worm's drain on its in-link at its first move
(``_declare_drain``, :meth:`~repro.switches.link.Link.drain`): the link
then dates the FIFO-slot return of every flit of the worm sent from
there on, the mover returns only the slots below ``_Ingress.prepaid``,
and the sender is not held to the FIFO's window for the rest of the
worm (the rule is the :mod:`repro.switches.link` docstring's).  The
writer of an admitted worm and of a covered unicast declares one, as
does a bypass feed toward a host; a unicast writer its quota does not
cover, whose next chunk may be refused, is none, nor is any writer while
the write bandwidth is contended.

Buffer bandwidth is a timing input only when more ports can ask than the
cap admits: with ``cb_write_bandwidth`` (``cb_read_bandwidth``) below the
port count that half commits no run and every flit takes the arbitrated
path.  Otherwise every asker is granted every cycle, and all that is left
of the write arbiter is the order in which the inputs of one cycle
allocate from a nearly empty pool — kept exact by leaving an input that
is inside a write run on the candidate list (``_write_standing``).
``fifo_occupancy``, the pool's
:meth:`~repro.switches.chunks.CentralBufferPool.at` and the link's
credit introspection keep reporting the one-flit timeline while a run is
ahead of it.

Every flit leaves on the cycle a one-flit-per-cycle switch would send
it; :class:`repro.reference.ReferenceCentralBufferSwitch` is that
switch, sharing every decision in this module and moving ``Flit``
objects over full port scans, and the differential suites hold the two
bit-identical (``tests/sim/test_packed_differential.py``,
``tests/switches/test_span_commit.py``).

Worm arrival, the routing-delay wait and ``tick`` with its sleep rule
are :class:`~repro.switches.base.SwitchBase`'s; this module is what the
paper says is different about a central-buffer switch.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.errors import ProtocolError
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry
from repro.routing.base import PortRequest
from repro.routing.table import SwitchRoutingTable
from repro.sim.trace import Tracer
from repro.switches.arbiter import RoundRobinArbiter
from repro.switches.base import (
    Ingress,
    SwitchBase,
    SwitchSettings,
    committed_run,
)
from repro.switches.chunks import (
    BranchCursor,
    CentralBufferPool,
    StoredPacket,
)
from repro.switches.link import Link
from repro.switches.ports import PORTS_OF


class _IngressState(enum.Enum):
    """Lifecycle of a worm arriving at an input port."""

    ARRIVING = "arriving"          # header not yet complete
    ROUTE_WAIT = "route_wait"      # header complete, routing delay running
    ADMIT_WAIT = "admit_wait"      # multidestination reservation queued
    STREAM_CB = "stream_cb"        # flits flowing into the central buffer
    STREAM_BYPASS = "stream_bypass"  # flits pulled directly by the output


_ROUTE_WAIT = _IngressState.ROUTE_WAIT
_ADMIT_WAIT = _IngressState.ADMIT_WAIT


class _Ingress(Ingress):
    """A worm in an input FIFO: how far it has drained, and where to."""

    __slots__ = (
        "consumed", "state", "stored", "requests", "bypass_worm",
        "bypass_port", "prepaid",
    )

    def __init__(self, worm: Worm) -> None:
        super().__init__(worm)
        self.consumed = 0
        #: the first flit whose FIFO slot the in-link dated the return
        #: of itself (this switch drains the worm, see `_declare_drain`):
        #: the mover returns the slots below it only
        self.prepaid = worm.size_flits
        self.state = _IngressState.ARRIVING
        self.stored: Optional[StoredPacket] = None
        #: the routing decision, parked while a reservation waits
        self.requests: Sequence[PortRequest] = ()
        self.bypass_worm: Optional[Worm] = None
        self.bypass_port: Optional[int] = None


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
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name, table, num_ports, settings, tracer, metrics)
        self.pool = CentralBufferPool(
            capacity_flits=settings.central_buffer_flits,
            chunk_flits=settings.chunk_flits,
            num_inputs=num_ports,
            quota_chunks=-(-settings.max_packet_flits // settings.chunk_flits),
            dated=self._dated,
        )
        #: per-output FIFO of branch cursors queued in the central buffer
        self._out_queue: List[Deque[BranchCursor]] = [
            deque() for _ in range(num_ports)
        ]
        self._out_current: List[Optional[object]] = [None] * num_ports
        self._write_arbiter = RoundRobinArbiter(num_ports)
        self._read_arbiter = RoundRobinArbiter(num_ports)
        # the skeleton's egress masks mirror `_out_queue[p]` non-empty
        # (wanted) and `_out_current[p]` set (busy); a route-pending
        # front worm is in ROUTE_WAIT or ADMIT_WAIT.  One more FIFO-front
        # mask, same discipline: bit p of `_cb_feed` means the front worm
        # of `_inflow[p]` streams into the central buffer.  A front worm
        # with neither bit is still arriving or pulled by a bypass feed
        self._cb_feed = 0
        if metrics is not None:
            self._c_replicated = metrics.counter("switch.chunks_replicated")
        # hot-path constants and caches
        self._w_bw = settings.cb_write_bandwidth
        self._r_bw = settings.cb_read_bandwidth
        self._chunk_flits = settings.chunk_flits
        # bandwidth is a timing input only when more ports can ask than
        # the cap admits; otherwise every asker is granted every cycle
        # and runs may be committed through the buffer
        self._write_runs = settings.cb_write_bandwidth >= num_ports
        self._read_runs = settings.cb_read_bandwidth >= num_ports
        # the write arbiter's pointer decides who allocates first when
        # the pool runs short, and the per-flit switch moves it on the
        # cycles this one sleeps through: `_write_standing` has a bit per
        # input that asks again every such cycle (inside a write run, or
        # refused), as of the write phase of cycle `_write_cycle`
        self._write_standing = 0
        self._write_cycle = -1
        # per input inside a write run that carries its worm's tail, the
        # cycle of that last write: the switch may sleep past it, and
        # the input asks no more after it (every other run ends with a
        # wake of its own)
        self._write_until: Dict[int, int] = {}
        # chunks given back by the end of the last write phase in which a
        # write was refused: while it stands, no chunk went back for the
        # refused
        self._pool_mark = -1

    # ------------------------------------------------------------------
    # SwitchBase contract
    # ------------------------------------------------------------------
    def input_credit_depth(self, port: int) -> int:
        return self.settings.input_fifo_depth

    # ------------------------------------------------------------------
    # per-cycle behaviour (phase 1, worm arrival, is the skeleton's)
    # ------------------------------------------------------------------
    def _phases(self, now: int) -> None:
        self._starved = False
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
        inflows = self._inflow
        for port in PORTS_OF[self._route_pending]:
            ingress = inflows[port][0]
            if ingress.state is _ROUTE_WAIT:
                self._try_route(port, ingress, now)
            if ingress.state is _ADMIT_WAIT:
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
            ingress.requests = requests
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
            if self.tracer is not None:
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
            self._out_queue[out_port].append(
                stored.add_branch(child, out_port)
            )
            self._egress_wanted |= 1 << out_port
            ingress.stored = stored
            self._stream_to_buffer(port, ingress)
            if self.tracer is not None:
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
            self._starved = True
            if self._obs:
                self._c_blocked.inc()
            return
        self._stirred = True
        requests = ingress.requests
        if self._obs and len(requests) > 1:
            self._c_replicated.inc(
                self.pool.chunks_for(ingress.worm.size_flits)
                * (len(requests) - 1)
            )
        for request in requests:
            child = ingress.worm.branch(request.destinations, request.descending)
            self._out_queue[request.port].append(
                stored.add_branch(child, request.port)
            )
            self._egress_wanted |= 1 << request.port
        self._stream_to_buffer(port, ingress)
        if self.tracer is not None:
            self.tracer.emit(
                now, self.name, "admit_multidest",
                inp=port, branches=len(requests),
                packet=ingress.worm.packet.packet_id,
                waited=now - ingress.header_done_cycle
                - self.settings.routing_delay,
            )

    # -- phase 3: move flits from input FIFOs into the central buffer ----
    def _write_central_buffer(self, now: int) -> None:
        inflows = self._inflow
        arbiter = self._write_arbiter
        w_bw = self._w_bw
        standing = self._write_standing
        until = self._write_until
        if standing and now > self._write_cycle + 1:
            # slept through cycles in which those inputs asked and were
            # granted: the same set every cycle, so the pointer settled
            # after the first — and again after each cycle an input whose
            # run wrote its tail stopped asking
            arbiter.grant_batch(PORTS_OF[standing], w_bw)
            for end in sorted(set(until.values())):
                if end >= now - 1:
                    break
                for port, last in until.items():
                    if last == end:
                        standing &= ~(1 << port)
                if standing:
                    arbiter.grant_batch(PORTS_OF[standing], w_bw)
        if until:
            for port in [port for port, last in until.items() if last < now]:
                del until[port]
        self._write_cycle = now
        # an input asks when its next flit has landed (Ingress.landed_by,
        # inlined) — and, inside a write run, every cycle of the run
        candidates = []
        for port in PORTS_OF[self._cb_feed]:
            ingress = inflows[port][0]
            landed = ingress.received
            ahead = ingress.last_landing - now
            if ahead > 0:
                landed -= ahead
            if ingress.consumed < landed or ingress.stored.last_write >= now:
                candidates.append(port)
        if not candidates:
            self._write_standing = 0
            return
        winners = arbiter.grant_batch(candidates, w_bw)
        in_links = self.in_links
        commit = self._write_runs
        pool = self.pool
        dated = self._dated
        standing = 0
        progress = 0
        refused = False
        for port in winners:
            ingress = inflows[port][0]
            stored = ingress.stored
            assert stored is not None
            if stored.last_write >= now:
                # this cycle's flit was written when the run was committed,
                # and a chunk it opens is taken here, at this input's turn
                if dated.take_dates:
                    dated.take_due(stored.charge, now, pool)
                if stored.last_write > now:
                    standing |= 1 << port
                continue
            if not stored.ensure_write_space(now):
                self._starved = refused = True
                standing |= 1 << port
                if self._obs:
                    self._c_blocked.inc()
                # when more inputs competed than the write bandwidth
                # admits, next cycle's rotated grant may reach an input
                # whose own quota still has room — keep polling
                if len(candidates) > w_bw:
                    self._stirred = True
                continue  # central buffer full: stall this input
            consumed = ingress.consumed
            link = in_links[port]
            if commit:
                worm = ingress.worm
                received = ingress.received
                if (
                    not consumed
                    and (stored.reserve_all or stored.cover())
                    and link is not None
                ):
                    # admitted, or covered by its own input's quota, and
                    # every asker is granted: from this first write on
                    # the writer takes each flit as it lands, through to
                    # the tail
                    self._declare_drain(ingress, link, now)
                run = committed_run(
                    received - consumed, worm.size_flits - consumed, now,
                    link, worm, received, space=stored.write_space(now),
                )
                if run:
                    # the space is owned, or its takes certain, and every
                    # asker is granted: only arrivals could delay these
                    # writes, and theirs are dated — the next flit has landed, so the taken ones
                    # behind it land by their turn.  The FIFO slots go
                    # back as one ramp, but for those the link dated
                    stored.write_run(now, run)
                    owed = ingress.prepaid - consumed
                    if link is not None and owed > 0:
                        link.return_credit_ramp(now, min(run, owed))
                    consumed += run
                    ingress.consumed = consumed
                    standing |= 1 << port
                    progress += run
                    if consumed == worm.size_flits:
                        self._write_until[port] = now + run - 1
                        self._release_at(now + run - 1, 0, 1 << port)
                    else:
                        self.wake_at(now + run)
                        if link is not None:
                            link.hold(worm, now + run - 1)
                    continue
            stored.write_flit()
            # the FIFO slot is consumed inline: no call per flit
            if link is not None and consumed < ingress.prepaid:
                link.return_credit(now)
            consumed += 1
            ingress.consumed = consumed
            if consumed == ingress.worm.size_flits:
                self._pop_front(port)
            progress += 1
        self._write_standing = standing
        if refused:
            self._pool_mark = pool.chunks_returned
        if progress:
            self._stirred = True
            self.sim.progress += progress

    def _pop_front(self, port: int) -> None:
        self._cb_feed &= ~(1 << port)
        super()._pop_front(port)

    def _free_output(self, port: int) -> None:
        self._out_current[port] = None
        self._egress_busy &= ~(1 << port)

    # -- phase 4: drive the output ports ---------------------------------
    def _drive_outputs(self, now: int) -> None:
        out_current = self._out_current
        out_links = self.out_links
        # activate queued branches on idle outputs
        ready = self._egress_wanted & ~self._egress_busy
        if ready:
            out_queue = self._out_queue
            for port in PORTS_OF[ready]:
                queue = out_queue[port]
                out_current[port] = queue.popleft()
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
                link = out_links[port]
                # a committed read run holds the link's slot until its
                # last member's cycle has passed
                if link is None or link._last_send_cycle >= now:
                    continue
                # readable: the next flit is written by now on the
                # timeline of a write run that may be ahead of it
                # (StoredPacket.written_by, inlined)
                stored = current.stored  # type: ignore[attr-defined]
                written = stored.flits_written
                ahead = stored.last_write - now
                if ahead > 0:
                    written -= ahead
                # inlined Link.can_send (kept in sync with it): credits
                # only ever grow by draining matured returns, so a
                # positive counter needs no drain to prove sendability
                if current.read < written and (  # type: ignore[attr-defined]
                    link._credits > 0  # type: ignore[operator]
                    or link.can_send(now)
                ):
                    read_candidates.append(port)
        if not read_candidates:
            return
        winners = self._read_arbiter.grant_batch(read_candidates, self._r_bw)
        chunk = self._chunk_flits
        commit = self._read_runs
        progress = 0
        for port in winners:
            cursor = out_current[port]
            stored = cursor.stored  # type: ignore[union-attr]
            link = out_links[port]
            assert link is not None
            read = cursor.read  # type: ignore[union-attr]
            total = stored.total_flits
            if commit:
                # everything written, dated ahead or not, is written by
                # the cycle this cursor gets to it: it reads one flit a
                # cycle at most and its next one is there now
                run = committed_run(
                    stored.flits_written - read, total - read, now,
                    out_link=link,
                    sent=cursor.worm,  # type: ignore[union-attr]
                )
                if run:
                    link.send_span(now, cursor.worm, read, run)  # type: ignore[union-attr]
                    # each chunk end inside the run, and the packet's end,
                    # at its own cycle
                    end = read + run
                    sent = chunk - read % chunk
                    while sent < run:
                        stored.crossed(read + sent, now + sent - 1, now)
                        sent += chunk
                    if sent == run or end == total:
                        stored.crossed(end, now + run - 1, now)
                    cursor.read = end  # type: ignore[union-attr]
                    progress += run
                    if end == total:
                        self._release_at(now + run - 1, 1 << port, 0)
                    else:
                        self.wake_at(now + run)
                    continue
            link.send_granted(now, cursor.worm, read)  # type: ignore[union-attr]
            read += 1
            cursor.read = read  # type: ignore[union-attr]
            # a chunk can only be released when this cursor crosses its
            # end or finishes, so skip the call on every other flit
            if read == total or not read % chunk:
                stored.crossed(read, now, now)
            progress += 1
            if read == total:
                self._free_output(port)
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
        # a committed run holds the link's slot (and keeps `consumed`
        # ahead of the landings) until its last member's cycle has passed
        if link._last_send_cycle >= now:
            return
        # the next flit must have landed (Ingress.landed_by, inlined)
        consumed = ingress.consumed
        received = ingress.received
        ahead = ingress.last_landing - now
        if consumed >= (received - ahead if ahead > 0 else received):
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
        size = ingress.worm.size_flits
        if not consumed and link._unthrottled and in_link is not None:
            # toward a sink that never throttles nothing refuses this
            # feed: from this first send on it forwards each flit as it
            # lands, through to the tail
            self._declare_drain(ingress, in_link, now)
        run = committed_run(
            received - consumed, size - consumed, now,
            in_link, ingress.worm, received, out_link=link, sent=worm,
        )
        if run:
            link.send_span(now, worm, consumed, run)
            owed = ingress.prepaid - consumed
            if in_link is not None and owed > 0:
                in_link.return_credit_ramp(now, min(run, owed))
            consumed += run
            ingress.consumed = consumed
            if self._obs:
                self._c_forwarded.inc(run)
            self.sim.progress += run
            if consumed == size:
                self._release_at(
                    now + run - 1, 1 << port, 1 << feed.input_port
                )
            else:
                self.wake_at(now + run)
                if in_link is not None:
                    in_link.hold(ingress.worm, now + run - 1)
            return
        link.send_granted(now, worm, consumed)
        # FIFO-slot consume, inline as in _write_central_buffer
        if in_link is not None and consumed < ingress.prepaid:
            in_link.return_credit(now)
        consumed += 1
        ingress.consumed = consumed
        if self._obs:
            self._c_forwarded.inc()
        self.sim.progress += 1
        if consumed == size:
            self._pop_front(feed.input_port)
            self._free_output(port)

    @staticmethod
    def _declare_drain(ingress: _Ingress, in_link: Link, now: int) -> None:
        """The mover of ``ingress`` moves its first flit at ``now`` and
        from then on each flit on the cycle it lands, or on the cycle
        after the one before if later: declare it the drain of the worm
        on ``in_link`` (see :mod:`repro.switches.link`).  The flits taken
        so far are moved by cycle ``max(last_landing, now + received -
        1)``; the link returns the index from which it dates the FIFO
        slots' returns itself."""
        received = ingress.received
        if received < ingress.worm.size_flits:  # else nothing is to come
            ingress.prepaid = in_link.drain(
                ingress.worm, received,
                max(ingress.last_landing, now + received - 1) + 1,
            )

    def _inside_runs(self, now: int) -> bool:
        # sleep rule: nothing queued for an idle output, and every worm
        # at a FIFO front or on an output unable to move at `now + 1`
        # but by a wake already arranged —
        # * inside a run (the link's slot reserved, the write dated,
        #   past `now`): the run's own wake;
        # * out of flits — none landed, or written, by `now + 1`: the
        #   hook of the send that brings the next, or the write's stir;
        # * refused in this tick — a flit was there and did not move.
        #   For an output the link refused a credit and wakes it; for a
        #   writer the pool refused a chunk, no chunk went back since
        #   (`_pool_mark`), and `_blocked_wake` has the dated releases;
        # * in its routing delay: `_blocked_wake` has the expiry.
        # A worm whose delay has run awaits admission and polls (this
        # tick's reads may have freed its chunks), as does one that
        # moved a single flit and has the next.  A branch queued for a
        # busy output is activated by the stirring tail that frees it,
        # or the wake of the dated release a run's tail made
        # (`_blocked_wake`), which also exposes a worm queued behind a
        # front worm; anything new arrives through a link hook, and such
        # a worm has its header stamped by landing cycle whenever the
        # switch next looks.
        if self._egress_wanted & ~self._egress_busy:
            return False
        soon = now + 1
        inflows = self._inflow
        covered = self._cb_feed | self._route_pending
        delay = self.settings.routing_delay
        for port in PORTS_OF[self._route_pending]:
            if inflows[port][0].header_done_cycle + delay <= now:
                return False  # awaits admission, or was exposed just now
        out_current = self._out_current
        out_links = self.out_links
        for port in PORTS_OF[self._egress_busy]:
            feed = out_current[port]
            sent = out_links[port]._last_send_cycle  # type: ignore[union-attr]
            if type(feed) is _BypassFeed:
                covered |= 1 << feed.input_port
                if sent > now:
                    continue
                ingress = feed.ingress
                cursor = ingress.consumed
                there = ingress.landed_by(now)
                coming = ingress.landed_by(soon)
            elif sent > now:
                continue
            elif not self._read_runs:
                return False  # it may have lost the arbitration instead
            else:
                stored = feed.stored  # type: ignore[union-attr]
                cursor = feed.read  # type: ignore[union-attr]
                there = stored.written_by(now)
                coming = stored.written_by(soon)
            if cursor < coming and (sent == now or cursor >= there):
                return False
        if covered != self._ingress_occupied:
            return False
        refused = 0
        if self._write_runs and self._pool_mark == self.pool.chunks_returned:
            refused = self._write_standing
        for port in PORTS_OF[self._cb_feed]:
            ingress = inflows[port][0]
            if (
                ingress.stored.last_write <= now
                and ingress.consumed < ingress.landed_by(soon)
                and not refused >> port & 1
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # introspection for tests and metrics
    # ------------------------------------------------------------------
    def fifo_occupancy(self, port: int) -> int:
        """Flits held in an input FIFO once the current cycle's ticks
        are done, on the one-flit-per-cycle timeline."""
        # during a committed run `consumed` is ahead of the flits that
        # have left by now, the later members of a record taken at its
        # head are not there yet, and a head record whose wake is dated
        # at its routing cycle waits landed in the link: count each
        # where the per-flit timeline has it
        inflow = self._inflow[port]
        now = self.sim.now
        occupancy = self._landed(port, now) - sum(i.consumed for i in inflow)
        if inflow:
            front = inflow[0]
            if front.bypass_port is not None:
                link = self.out_links[front.bypass_port]
                assert link is not None
                occupancy += max(0, link._last_send_cycle - now)
            elif front.stored is not None:
                occupancy += max(0, front.stored.last_write - now)
        return occupancy

    def idle(self) -> bool:
        """True when no worm is anywhere inside the switch, on the
        one-flit-per-cycle timeline."""
        now = self.sim.now
        freed = self._freed_by(now)
        return (
            all(all(i.gone_by(now) for i in q) for q in self._inflow)
            and all(not q for q in self._out_queue)
            and all(
                c is None or freed >> port & 1
                for port, c in enumerate(self._out_current)
            )
            and self.pool.at(now).used_chunks == 0
        )
