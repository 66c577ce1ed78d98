"""Packed-data-plane variant of the input-buffer switch.

Same microarchitecture as
:class:`~repro.switches.input_buffer.InputBufferSwitch` — routing,
output arbitration and slot recycling are inherited unchanged — but the
flit-movement phases use the packed link API: spans in
(:meth:`~repro.switches.link.Link.receive_span`), flit coordinates out
(:meth:`~repro.switches.link.Link.send_granted`), and every phase
iterates the set bits of a port-activity mask instead of the port range
(see :mod:`repro.switches.ports`).  No
:class:`~repro.flits.flit.Flit` object is ever constructed here
(enforced by reprolint rule REP008); trace events use
:func:`~repro.flits.packed.flit_repr`.

Every observable is bit-identical to the object path — a span accept
updates the same ingress cursors the per-flit accept would, and egress
stays one flit per output per cycle (see
``tests/sim/test_packed_differential.py``).
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.flits.packed import flit_repr
from repro.flits.worm import Worm
from repro.switches.input_buffer import InputBufferSwitch, _Ingress
from repro.switches.ports import PORTS_OF, MaskedReceive


class PackedInputBufferSwitch(MaskedReceive, InputBufferSwitch):
    """Input-queued switch on the packed data plane."""

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
        if self.tracer.enabled:
            for index in range(start, start + count):
                self.tracer.emit(
                    now, self.name, "flit_in",
                    port=port, flit=flit_repr(worm, index),
                )

    # -- phase 2: decode the worm at each buffer head ----------------------
    def _route_heads(self, now: int) -> None:
        inflows = self._inflow
        for port in PORTS_OF[self._ingress_occupied]:
            ingress = inflows[port][0]
            if not ingress.branches:
                self._route_head(port, ingress, now)

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
            read = branch.read
            if read >= ingress.received:
                continue
            if not link.can_send(now):
                if self._obs:
                    self._c_blocked.inc()
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
            # the all-links can_send test above is send_granted's contract
            link.send_granted(now, branch.worm, branch.read)
            branch.read += 1
        if self._obs:
            self._c_forwarded.inc(len(branches))
        self.sim.progress += 1
        self._recycle_slots(branches[0].input_port, ingress, now)
        if branches[0].read == ingress.worm.size_flits:
            for branch in branches:
                self._current[branch.out_port] = None
                self._egress_busy &= ~(1 << branch.out_port)
            if self._sync_queue and self._sync_queue[0] is ingress:
                self._sync_queue.popleft()
                if self._sync_queue:
                    self._register_branches(self._sync_queue[0])
