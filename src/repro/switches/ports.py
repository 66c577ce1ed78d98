"""Port-activity bitmasks of the switches.

A switch tick does little work — under one flit moved per tick at low
load, two or three of eight inputs occupied at saturation — so scanning
every port in every phase costs more than the work itself.  The
switches therefore keep one int bitmask per kind of port activity,
updated at the point of state change, and each phase iterates only the
set bits:

``_rx_pending``
    in-link ``p`` holds in-flight flits.  Set by
    :class:`~repro.switches.link.Link` on every send, through the
    receiver registration :meth:`~repro.switches.link.Link.wake_on_arrival`
    holds; cleared by the receiver when that link's span queue drains
    empty (:meth:`~repro.switches.base.SwitchBase._receive`).
``_ingress_occupied``
    ``_inflow[p]`` is non-empty.  Set when a worm's head is accepted,
    cleared by the ``popleft`` that empties the deque.
``_egress_wanted``
    a branch is queued for (central buffer) or waiting on (input buffer)
    output ``p``.  Set by routing/admission, cleared by the activation
    or grant that empties the queue.
``_egress_busy``
    output ``p`` has a current branch or bypass feed.  Set on bypass
    grant / branch activation, cleared on tail send.
``_route_pending``
    the worm at the *front* of ``_inflow[p]`` has a complete header and
    awaits routing (central buffer: or admission).  Set when a front
    worm's header completes and when a ``popleft`` exposes a worm whose
    header already has; cleared by the routing decision.
``_cb_feed`` (central-buffer switch only)
    the front worm of ``_inflow[p]`` streams into the central buffer.
    Set by the routing/admission decision, cleared by its ``popleft``.
    A switch may sleep through committed bypass runs only while this
    and ``_route_pending`` are clear.

``_rx_pending`` lives on :class:`~repro.sim.component.Component`; the
others, bar ``_cb_feed``, on :class:`~repro.switches.base.SwitchBase`,
where they gate the phases of ``tick`` and decide its re-arm.
:data:`PORTS_OF` maps a mask to its set bits in *ascending* port order —
the order a ``range(num_ports)`` scan visits them — so tracer event
order, the ascending-candidates contract of
:meth:`~repro.switches.arbiter.RoundRobinArbiter.grant_batch` and every
arbiter pointer are exactly what the full scans of the per-flit
reference produce (:mod:`repro.reference` keeps every mask but
``_rx_pending`` in step and iterates none).
"""

from __future__ import annotations

from typing import Dict, Tuple


class _PortsOf(Dict[int, Tuple[int, ...]]):
    """``mask -> ascending tuple of set bit positions``, filled on demand."""

    def __missing__(self, mask: int) -> Tuple[int, ...]:
        ports = tuple(
            port for port in range(mask.bit_length()) if mask >> port & 1
        )
        self[mask] = ports
        return ports


#: the ports named by a mask, ascending; index with any non-negative int
PORTS_OF = _PortsOf()
