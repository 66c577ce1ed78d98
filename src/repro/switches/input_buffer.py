"""The input-buffer switch architecture (paper section 5).

Each input port owns a private FIFO buffer sized to hold the largest
packet in the system (the deadlock-freedom requirement for asynchronous
replication: an accepted multidestination worm can always be completely
buffered in its input buffer).  The worm at the buffer head is decoded
and requests its output ports; every granted branch reads the buffer
through its own cursor at its own pace — asynchronous replication — and
a buffer slot is recycled (credit returned upstream) once the slowest
branch has consumed it.

The architectural weaknesses the paper demonstrates are modelled
faithfully:

* storage is statically partitioned per input (no sharing), and
* strict FIFO service means a blocked head worm blocks every packet
  behind it (head-of-line blocking), even ones whose outputs are idle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import ProtocolError
from repro.flits.flit import Flit
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.routing.table import SwitchRoutingTable
from repro.sim.trace import NULL_TRACER, Tracer
from repro.switches.arbiter import RoundRobinArbiter
from repro.switches.base import ReplicationMode, SwitchBase, SwitchSettings
from repro.switches.ports import PORTS_OF


class _Branch:
    """One replicated output branch reading an input buffer."""

    __slots__ = ("worm", "out_port", "read", "input_port", "ingress")

    def __init__(
        self, worm: Worm, out_port: int, input_port: int, ingress: "_Ingress"
    ) -> None:
        self.worm = worm
        self.out_port = out_port
        self.read = 0
        self.input_port = input_port
        self.ingress = ingress


class _Ingress:
    """Per-worm arrival state at one input buffer."""

    __slots__ = ("worm", "received", "freed", "header_done_cycle", "branches")

    def __init__(self, worm: Worm) -> None:
        self.worm = worm
        self.received = 0
        self.freed = 0
        self.header_done_cycle: Optional[int] = None
        self.branches: List[_Branch] = []

    @property
    def routed(self) -> bool:
        return bool(self.branches)

    @property
    def drained(self) -> bool:
        """True when every branch has read the entire worm."""
        return (
            self.routed
            and self.received == self.worm.size_flits
            and all(b.read == self.worm.size_flits for b in self.branches)
        )

    def min_read(self) -> int:
        return min(branch.read for branch in self.branches)


class InputBufferSwitch(SwitchBase):
    """Input-queued switch with per-branch asynchronous replication."""

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
        self._inflow: List[Deque[_Ingress]] = [deque() for _ in range(num_ports)]
        #: branches waiting for each output port, keyed by input port
        self._waiting: List[Dict[int, _Branch]] = [
            {} for _ in range(num_ports)
        ]
        self._current: List[Optional[_Branch]] = [None] * num_ports
        self._grant_arbiters = [
            RoundRobinArbiter(num_ports) for _ in range(num_ports)
        ]
        # port-activity masks (see repro.switches.ports), kept at the
        # point of state change: bit p of each mirrors `_inflow[p]`
        # non-empty / `_waiting[p]` non-empty / `_current[p]` set.  As
        # whole-switch tests they skip phases when idle (and, on the
        # active-set kernel, decide whether to re-arm at all); the
        # packed phases also iterate them
        self._ingress_occupied = 0
        self._egress_wanted = 0
        self._egress_busy = 0
        # set whenever a tick changes any switch state (flit accepted,
        # routing decision, output grant, send); a blocked tick that
        # stays False may sleep instead of re-arming — see tick()
        self._stirred = False
        #: reused drain buffer — the per-cycle receive loop is allocation-free
        self._rx_scratch: List[Flit] = []
        #: FIFO of multidestination worms awaiting the replication token
        #: (synchronous mode only): at most one worm per switch may
        #: hold-and-accumulate output ports, the deadlock-avoidance
        #: arbitration synchronous replication requires (ref [6])
        self._sync_queue: Deque[_Ingress] = deque()
        # observability: shared process-wide counters (no-ops unless an
        # enabled registry was passed in)
        self._obs = metrics.enabled
        self._c_forwarded = metrics.counter("switch.flits_forwarded")
        self._c_replicated = metrics.counter("switch.branches_replicated")
        self._c_blocked = metrics.counter("switch.blocked_cycles")

    # ------------------------------------------------------------------
    # SwitchBase contract
    # ------------------------------------------------------------------
    def input_credit_depth(self, port: int) -> int:
        return self.settings.input_buffer_flits

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self._stirred = False
        self._receive(now)
        if self._ingress_occupied:
            self._route_heads(now)
        if self._egress_busy or self._egress_wanted:
            self._drive_outputs(now)
        # active-set re-arm: any worm anywhere inside the switch (inflow,
        # waiting, granted, or parked in the sync queue — sync entries are
        # always inflow worms) needs the next cycle too; a fully idle
        # switch is woken again by its in-links' arrival hooks.
        #
        # Blocked-sleep: a non-empty switch whose tick changed *nothing*
        # can only be unblocked by an arrival (in-link hook), a maturing
        # credit (out-link hook), or its own routing delay expiring (exact
        # wake computed below) — so an un-stirred tick may skip the
        # re-arm.  Exception: with metrics enabled the blocked-cycles
        # counter must increment every blocked cycle, as it does on the
        # dense kernel, so observed runs keep polling.
        if self._ingress_occupied or self._egress_busy or self._egress_wanted:
            if self._stirred or self._obs:
                self.wake_at(now + 1)
            else:
                wake = self._blocked_wake()
                if wake is not None:
                    self.wake_at(wake)

    def _blocked_wake(self) -> Optional[int]:
        """Earliest routing-delay expiry among unrouted buffer-head worms.

        The only *time*-driven transition a sleeping switch could miss:
        every other unblocking event fires a link wake hook.
        """
        delay = self.settings.routing_delay
        best: Optional[int] = None
        inflows = self._inflow
        for port in PORTS_OF[self._ingress_occupied]:
            ingress = inflows[port][0]
            if not ingress.routed and ingress.header_done_cycle is not None:
                cycle = ingress.header_done_cycle + delay
                if best is None or cycle < best:
                    best = cycle
        return best

    # -- phase 1: absorb link arrivals ------------------------------------
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
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.name, "flit_in", port=port, flit=repr(flit)
            )

    # -- phase 2: decode the worm at each buffer head ----------------------
    def _route_heads(self, now: int) -> None:
        for port in range(self.num_ports):
            inflow = self._inflow[port]
            if inflow:
                self._route_head(port, inflow[0], now)

    def _route_head(self, port: int, ingress: _Ingress, now: int) -> None:
        if ingress.routed or ingress.header_done_cycle is None:
            return
        if now < ingress.header_done_cycle + self.settings.routing_delay:
            return
        self._stirred = True
        for request in self.compute_requests(ingress.worm):
            child = ingress.worm.branch(
                request.destinations, request.descending
            )
            branch = _Branch(child, request.port, port, ingress)
            ingress.branches.append(branch)
        if self._obs and len(ingress.branches) > 1:
            self._c_replicated.inc(len(ingress.branches) - 1)
        if self._synchronous and len(ingress.branches) > 1:
            self._sync_queue.append(ingress)
            if self._sync_queue[0] is ingress:
                self._register_branches(ingress)
        else:
            self._register_branches(ingress)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.name, "route",
                inp=port, branches=len(ingress.branches),
                packet=ingress.worm.packet.packet_id,
                waited=now - ingress.header_done_cycle
                - self.settings.routing_delay,
            )

    @property
    def _synchronous(self) -> bool:
        return self.settings.replication is ReplicationMode.SYNCHRONOUS

    def _register_branches(self, ingress: _Ingress) -> None:
        """Expose a worm's branches to output-port arbitration."""
        for branch in ingress.branches:
            self._waiting[branch.out_port][branch.input_port] = branch
            self._egress_wanted |= 1 << branch.out_port

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

    def _grant_output(self, port: int, winner: int) -> None:
        """Make input ``winner``'s waiting branch output ``port``'s current."""
        waiting = self._waiting[port]
        self._current[port] = waiting.pop(winner)
        if not waiting:
            self._egress_wanted &= ~(1 << port)
        self._egress_busy |= 1 << port
        self._stirred = True

    def _advance_lockstep(self, ingress: _Ingress, now: int) -> None:
        """Synchronous replication: every branch sends the same flit in
        the same cycle, or nobody sends."""
        branches = ingress.branches
        if any(self._current[b.out_port] is not b for b in branches):
            return  # still accumulating output ports
        index = branches[0].read
        if index >= ingress.received:
            return
        links = [self.out_links[b.out_port] for b in branches]
        if any(link is None or not link.can_send(now) for link in links):
            if self._obs:
                self._c_blocked.inc()
            return  # one blocked branch stalls the whole worm
        self._stirred = True
        for branch, link in zip(branches, links):
            link.send(now, Flit(branch.worm, branch.read))
            branch.read += 1
        if self._obs:
            self._c_forwarded.inc(len(branches))
        self.sim.note_progress()
        self._recycle_slots(branches[0].input_port, ingress, now)
        if branches[0].read == ingress.worm.size_flits:
            for branch in branches:
                self._current[branch.out_port] = None
                self._egress_busy &= ~(1 << branch.out_port)
            if self._sync_queue and self._sync_queue[0] is ingress:
                self._sync_queue.popleft()
                if self._sync_queue:
                    self._register_branches(self._sync_queue[0])

    def _recycle_slots(self, input_port: int, ingress: _Ingress, now: int) -> None:
        """Free buffer slots the slowest branch has passed; pop when drained."""
        new_min = ingress.min_read()
        delta = new_min - ingress.freed
        if delta > 0:
            ingress.freed = new_min
            link = self.in_links[input_port]
            if link is not None:
                link.return_credit(now, delta)
        if ingress.drained:
            inflow = self._inflow[input_port]
            popped = inflow.popleft()
            if not inflow:
                self._ingress_occupied &= ~(1 << input_port)
            if popped is not ingress:
                raise ProtocolError(
                    f"{self.name}.in{input_port}: drained a non-head worm"
                )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def buffer_occupancy(self, port: int) -> int:
        """Flits currently held in an input buffer."""
        return sum(i.received - i.freed for i in self._inflow[port])

    def idle(self) -> bool:
        """True when no worm is anywhere inside the switch."""
        return (
            all(not q for q in self._inflow)
            and all(not w for w in self._waiting)
            and all(c is None for c in self._current)
        )
