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

Flits arrive as spans and leave as coordinates
(:meth:`~repro.switches.link.Link.send_granted`) or as a whole run of
them (below), and every phase iterates the set bits of a port-activity
mask instead of the port range (see :mod:`repro.switches.ports`).

**Group commit.**  A branch that owns its output contends for nothing:
only the arrival of its next flit or a missing credit can delay it, so
the flits whose send cycles are already determined
(:func:`~repro.switches.base.committed_run`) may leave in one
:meth:`~repro.switches.link.Link.send_span`.  What is not a branch's own
is the buffer slot it reads — that is recycled when the *slowest* branch
has passed it.  So the branches of a front worm that can send now commit
one common run together (:meth:`InputBufferSwitch._commit_group`), and
only when the run's effect on the slowest-branch cursor is determined
too: some other branch is strictly behind the group, and then the cursor
does not move at all; or every other branch stays at or ahead of the
group for the whole run, and then the cursor moves with the group, one
slot per cycle, handed back upstream as one
:meth:`~repro.switches.link.Link.return_credit_ramp`.  Anything in
between moves one flit per call.  A switch whose every output is inside
such a run does not re-arm (``_inside_runs``); the run's own wake sends
the tail, which is never a member.  Lock-step (synchronous) branches
never commit.  ``buffer_occupancy`` and the link's credit introspection
keep reporting the one-flit timeline while a run is ahead of it.

Every flit leaves on the cycle a one-flit-per-cycle switch would send
it; :class:`repro.reference.ReferenceInputBufferSwitch` is that switch,
and the differential suites hold the two bit-identical
(``tests/sim/test_packed_differential.py``,
``tests/switches/test_span_commit.py``).

Worm arrival, the routing-delay wait and ``tick`` with its sleep rule
are :class:`~repro.switches.base.SwitchBase`'s; this module is what the
paper says is different about an input-buffer switch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import ProtocolError
from repro.flits.worm import Worm
from repro.obs.registry import MetricsRegistry
from repro.routing.table import SwitchRoutingTable
from repro.sim.trace import Tracer
from repro.switches.arbiter import RoundRobinArbiter
from repro.switches.base import (
    Ingress,
    ReplicationMode,
    SwitchBase,
    SwitchSettings,
    committed_run,
)
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


class _Ingress(Ingress):
    """A worm in an input buffer: its branches and the slots they freed."""

    __slots__ = ("freed", "branches", "group_cycle")

    def __init__(self, worm: Worm) -> None:
        super().__init__(worm)
        #: slots handed back upstream; ahead of the slowest branch while
        #: a committed run's ramp of returns is still playing out
        self.freed = 0
        self.branches: List[_Branch] = []
        #: last cycle a group commit was attempted (once per tick)
        self.group_cycle = -1

    @property
    def routed(self) -> bool:
        return bool(self.branches)


class InputBufferSwitch(SwitchBase):
    """Input-queued switch with per-branch asynchronous replication."""

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
        # the skeleton's egress masks mirror `_waiting[p]` non-empty
        # (wanted) and `_current[p]` set (busy); a route-pending front
        # worm has no branches yet
        #: branches waiting for each output port, keyed by input port
        self._waiting: List[Dict[int, _Branch]] = [
            {} for _ in range(num_ports)
        ]
        self._current: List[Optional[_Branch]] = [None] * num_ports
        self._grant_arbiters = [
            RoundRobinArbiter(num_ports) for _ in range(num_ports)
        ]
        #: FIFO of multidestination worms awaiting the replication token
        #: (synchronous mode only): at most one worm per switch may
        #: hold-and-accumulate output ports, the deadlock-avoidance
        #: arbitration synchronous replication requires (ref [6])
        self._sync_queue: Deque[_Ingress] = deque()
        self._synchronous = (
            settings.replication is ReplicationMode.SYNCHRONOUS
        )
        if metrics is not None:
            self._c_replicated = metrics.counter("switch.branches_replicated")

    # ------------------------------------------------------------------
    # SwitchBase contract
    # ------------------------------------------------------------------
    def input_credit_depth(self, port: int) -> int:
        return self.settings.input_buffer_flits

    # ------------------------------------------------------------------
    # per-cycle behaviour (phase 1, worm arrival, is the skeleton's)
    # ------------------------------------------------------------------
    def _phases(self, now: int) -> None:
        # (a worm parked in the sync queue needs no phase of its own:
        # the lock-step tail that frees the token registers its branches)
        if self._route_pending:
            self._route_heads(now)
        if self._egress_busy or self._egress_wanted:
            self._drive_outputs(now)

    # -- phase 2: decode the worm at each buffer head ----------------------
    def _route_heads(self, now: int) -> None:
        inflows = self._inflow
        for port in PORTS_OF[self._route_pending]:
            self._route_head(port, inflows[port][0], now)

    def _route_head(self, port: int, ingress: _Ingress, now: int) -> None:
        if ingress.routed or ingress.header_done_cycle is None:
            return
        if now < ingress.header_done_cycle + self.settings.routing_delay:
            return
        self._stirred = True
        self._route_pending &= ~(1 << port)
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
        if self.tracer is not None:
            self.tracer.emit(
                now, self.name, "route",
                inp=port, branches=len(ingress.branches),
                packet=ingress.worm.packet.packet_id,
                waited=now - ingress.header_done_cycle
                - self.settings.routing_delay,
            )

    def _register_branches(self, ingress: _Ingress) -> None:
        """Expose a worm's branches to output-port arbitration."""
        for branch in ingress.branches:
            self._waiting[branch.out_port][branch.input_port] = branch
            self._egress_wanted |= 1 << branch.out_port

    # -- phase 3: grant outputs and move flits -----------------------------
    def _drive_outputs(self, now: int) -> None:
        current = self._current
        ready = self._egress_wanted & ~self._egress_busy
        if ready:
            waiting = self._waiting
            arbiters = self._grant_arbiters
            for port in PORTS_OF[ready]:
                winner = arbiters[port].grant(waiting[port])
                if winner is not None:
                    self._grant_output(port, winner)
        out_links = self.out_links
        synchronous = self._synchronous
        lockstep_done = set()
        progress = 0
        for port in PORTS_OF[self._egress_busy]:
            branch = current[port]
            if branch is None:
                continue  # a lock-step tail freed this port earlier in the loop
            link = out_links[port]
            if link is None:
                raise ProtocolError(f"{self.name}: active branch on unwired "
                                    f"output port {port}")
            ingress = branch.ingress
            if synchronous and len(ingress.branches) > 1:
                if id(ingress) not in lockstep_done:
                    lockstep_done.add(id(ingress))
                    self._advance_lockstep(ingress, now)
                continue
            # a committed run holds the link's slot (and keeps `read`
            # ahead of the landings) until its last member's cycle has
            # passed
            if link._last_send_cycle >= now:
                continue
            # the next flit must have landed (Ingress.landed_by, inlined)
            read = branch.read
            landed = ingress.received
            ahead = ingress.last_landing - now
            if read >= (landed - ahead if ahead > 0 else landed):
                continue
            if not link.can_send(now):
                if self._obs:
                    self._c_blocked.inc()
                continue
            if ingress.group_cycle != now:
                ingress.group_cycle = now
                moved = self._commit_group(branch.input_port, ingress, now)
                if moved:
                    progress += moved
                    continue
            link.send_granted(now, branch.worm, read)
            read += 1
            branch.read = read
            progress += 1
            self._recycle_slots(branch.input_port, ingress, now)
            if read == branch.worm.size_flits:
                current[port] = None
                self._egress_busy &= ~(1 << port)
        if progress:
            self._stirred = True
            self.sim.progress += progress
            if self._obs:
                self._c_forwarded.inc(progress)

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
        if index >= ingress.landed_by(now):
            return
        links = [self.out_links[b.out_port] for b in branches]
        if any(link is None or not link.can_send(now) for link in links):
            if self._obs:
                self._c_blocked.inc()
            return  # one blocked branch stalls the whole worm
        self._stirred = True
        for branch, link in zip(branches, links):
            link.send_packed(now, branch.worm, branch.read)
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

    def _commit_group(
        self, input_port: int, ingress: _Ingress, now: int
    ) -> int:
        """Commit one common run for every branch of ``ingress`` that can
        send at ``now``; returns the flits moved (0: take the per-flit
        path).  See the module docstring for when that is exact."""
        # a branch whose next flit has landed may count every taken
        # flit behind it: each lands by its turn (`committed_run`)
        received = ingress.received
        landed = ingress.landed_by(now)
        worm = ingress.worm
        size = worm.size_flits
        in_link = self.in_links[input_port]
        current = self._current
        out_links = self.out_links
        group = []
        others = []
        run = low = size
        for branch in ingress.branches:
            link = out_links[branch.out_port]
            read = branch.read
            if (
                current[branch.out_port] is branch
                and read < landed
                and link.can_send(now)  # type: ignore[union-attr]
            ):
                reach = committed_run(
                    received - read, size - 1 - read, now,
                    in_link, worm, received, out_link=link,
                )
                if not reach:
                    return 0
                if reach < run:
                    run = reach
                if read < low:
                    low = read
                group.append(branch)
            else:
                others.append(branch)
        # the slowest-branch cursor: pinned by a branch strictly behind
        # the group, or moving with the group if everyone else stays at
        # or ahead of it for the whole run (which may cap the run)
        pinned = any(branch.read < low for branch in others)
        if not pinned:
            for branch in others:
                read = branch.read
                if current[branch.out_port] is branch:
                    # inside a run of its own it is, on the timeline,
                    # behind `read` by the slots its link still holds
                    held = out_links[branch.out_port]._last_send_cycle - now + 1  # type: ignore[union-attr]
                    if held > 0 and read - held < low:
                        return 0
                if read - low < run:
                    run = read - low
        if run < 2:
            return 0
        for branch in group:
            out_links[branch.out_port].send_span(  # type: ignore[union-attr]
                now, branch.worm, branch.read, run
            )
            branch.read += run
        if not pinned:
            ingress.freed += run
            if in_link is not None:
                in_link.return_credit_ramp(now, run)
        self.wake_at(now + run)
        return run * len(group)

    def _slowest_read(self, ingress: _Ingress, now: int) -> int:
        """Flits the slowest branch of ``ingress`` has sent by the end of
        cycle ``now`` on the one-flit-per-cycle timeline (a branch inside
        a committed run has `read` ahead of that by the slots its link
        still holds); the worm's size plus one when every branch has
        sent it all."""
        current = self._current
        out_links = self.out_links
        size = ingress.worm.size_flits
        slowest = size + 1
        for branch in ingress.branches:
            read = branch.read
            if read == size:
                continue
            if current[branch.out_port] is branch:
                ahead = out_links[branch.out_port]._last_send_cycle - now  # type: ignore[union-attr]
                if ahead > 0:
                    read -= ahead
            if read < slowest:
                slowest = read
        return slowest

    def _recycle_slots(self, input_port: int, ingress: _Ingress, now: int) -> None:
        """Free buffer slots the slowest branch has passed; pop when drained."""
        slowest = self._slowest_read(ingress, now)
        size = ingress.worm.size_flits
        drained = slowest > size
        if drained:
            slowest = size
        delta = slowest - ingress.freed
        if delta > 0:
            ingress.freed = slowest
            link = self.in_links[input_port]
            if link is not None:
                link.return_credit(now, delta)
        if drained:
            if self._inflow[input_port][0] is not ingress:
                raise ProtocolError(
                    f"{self.name}.in{input_port}: drained a non-head worm"
                )
            self._pop_front(input_port)
            # unlink the pair (each branch points back at its ingress)
            # so it is freed by reference count as the outputs let go,
            # not left for the cyclic collector to find
            ingress.branches = []

    def _inside_runs(self, now: int) -> bool:
        # sleep rule: no output to grant, no lock-step worm, and every
        # branch on an output unable to move at `now + 1` but by a wake
        # already arranged —
        # * inside a run (the link's slot reserved past `now`): the
        #   run's own wake, whose stirring tail send is also what frees
        #   the output a waiting branch is queued for;
        # * out of flits — none landed by `now + 1`: the hook of the
        #   send that brings the next;
        # * refused in this tick — a flit was there and it did not
        #   send: the link refused a credit, and wakes it
        # — and every occupied input's front worm routed, or in its
        # routing delay (`_blocked_wake` has the expiry).  A branch that
        # moved a single flit and has the next polls.  Anything new
        # arrives through a link hook, and a worm queued behind a front
        # worm has its header stamped by landing cycle whenever the
        # switch next looks.
        if self._sync_queue or self._egress_wanted & ~self._egress_busy:
            return False
        out_links = self.out_links
        current = self._current
        soon = now + 1
        for port in PORTS_OF[self._egress_busy]:
            sent = out_links[port]._last_send_cycle  # type: ignore[union-attr]
            if sent > now:
                continue
            branch = current[port]
            ingress = branch.ingress  # type: ignore[union-attr]
            read = branch.read  # type: ignore[union-attr]
            if read < ingress.landed_by(soon) and (
                sent == now or read >= ingress.landed_by(now)
            ):
                return False
        inflows = self._inflow
        delay = self.settings.routing_delay
        for port in PORTS_OF[self._ingress_occupied]:
            front = inflows[port][0]
            if not front.branches and (
                front.header_done_cycle is None
                or front.header_done_cycle + delay <= now
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def buffer_occupancy(self, port: int) -> int:
        """Flits held in an input buffer once the current cycle's ticks
        are done, on the one-flit-per-cycle timeline."""
        # flits that landed while the switch slept wait untaken in the
        # link, the later members of a record taken at its head are not
        # there yet, and a committed run handed its slots back ahead of
        # the cycles they are freed in: count each where the per-flit
        # timeline has it
        inflow = self._inflow[port]
        now = self.sim.now
        occupancy = sum(i.landed_by(now) - i.freed for i in inflow)
        in_link = self.in_links[port]
        if in_link is not None:
            occupancy += in_link._in_flight.arrived(now)
        if inflow and inflow[0].branches:
            front = inflow[0]
            slowest = self._slowest_read(front, now)
            if slowest < front.freed:
                occupancy += front.freed - slowest
        return occupancy

    def idle(self) -> bool:
        """True when no worm is anywhere inside the switch."""
        return (
            all(not q for q in self._inflow)
            and all(not w for w in self._waiting)
            and all(c is None for c in self._current)
        )
