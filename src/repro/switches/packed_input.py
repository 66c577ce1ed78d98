"""Packed-data-plane variant of the input-buffer switch.

Same microarchitecture as
:class:`~repro.switches.input_buffer.InputBufferSwitch` — routing,
output arbitration, lock-step replication and slot recycling are
inherited unchanged — but the flit-movement phases use the packed link
API: spans in (:class:`~repro.switches.ports.MaskedReceive` feeding the
skeleton's ``_accept_span``), flit coordinates out
(:meth:`~repro.switches.link.Link.send_granted`), and every phase
iterates the set bits of a port-activity mask instead of the port range
(see :mod:`repro.switches.ports`).  No
:class:`~repro.flits.flit.Flit` object is ever constructed here
(enforced by reprolint rule REP008).

Every observable is bit-identical to the object path — a span accept
updates the same ingress cursors the per-flit accept would, and egress
stays one flit per output per cycle (see
``tests/sim/test_packed_differential.py``).
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.switches.input_buffer import InputBufferSwitch
from repro.switches.ports import PORTS_OF, MaskedReceive


class PackedInputBufferSwitch(MaskedReceive, InputBufferSwitch):
    """Input-queued switch on the packed data plane."""

    # -- phase 2: decode the worm at each buffer head ----------------------
    def _route_heads(self, now: int) -> None:
        inflows = self._inflow
        for port in PORTS_OF[self._route_pending]:
            self._route_head(port, inflows[port][0], now)

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
