"""Port-activity bitmasks for the packed data plane.

A switch tick does little work — under one flit moved per tick at low
load, two or three of eight inputs occupied at saturation — so scanning
every port in every phase costs more than the work itself.  The
switches therefore keep one int bitmask per kind of port activity,
updated at the point of state change, and each packed phase iterates
only the set bits:

``_rx_pending``
    in-link ``p`` holds in-flight flits.  Set by
    :class:`~repro.switches.link.Link` on every send, through the
    receiver registration :meth:`~repro.switches.link.Link.wake_on_arrival`
    holds; cleared by the receiver when that link's span queue drains
    empty (:class:`MaskedReceive`).
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
where they gate the phases of ``tick`` and decide its re-arm on both
planes; only the packed phases iterate them.  :data:`PORTS_OF` maps a
mask to its set bits in *ascending* port order — the order
``range(num_ports)`` visited them — so tracer event order, the
ascending-candidates contract of
:meth:`~repro.switches.arbiter.RoundRobinArbiter.grant_batch` and every
arbiter pointer are exactly what the full scans produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.flits.packed import SpanQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switches.link import Link


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

#: per-input receive bindings: (receive_span, span queue)
_RxPort = Tuple[Callable[..., object], SpanQueue]


class MaskedReceive:
    """Mixin: drain in-links as spans, visiting only rx-pending ports.

    For a :class:`~repro.switches.base.SwitchBase` subclass, whose
    ``_accept_span(port, worm, start, count, now)`` it feeds.  The per-port
    ``receive_span`` bindings are captured lazily on the first receive
    (wiring happens after construction) and invalidated by
    :meth:`connect_in`, so an entry point rebound on the link instance
    before the first tick — ``SpanProfiler``, the ledger's ``SimProbe``
    — is the one called.
    """

    _rx: Optional[List[Optional[_RxPort]]] = None

    def connect_in(self, port: int, link: "Link") -> None:
        super().connect_in(port, link)  # type: ignore[misc]
        self._rx = None

    def _receive(self, now: int) -> None:
        if not self._rx_pending:  # type: ignore[has-type]
            return
        rx = self._rx
        if rx is None:
            rx = self._rx = [
                None if link is None else (link.receive_span, link._in_flight)
                for link in self.in_links  # type: ignore[attr-defined]
            ]
        for port in PORTS_OF[self._rx_pending]:
            take, queue = rx[port]  # type: ignore[misc]
            span = take(now)
            while span is not None:
                self._accept_span(  # type: ignore[attr-defined]
                    port, span[0], span[1], span[2], now
                )
                span = take(now) if queue._flits else None
            # flits still in flight keep the bit: the switch comes back
            # for them through its own re-arm (it was just stirred), the
            # wake of the committed run they belong to, or the arrival
            # wake of the send that follows
            if not queue._flits:
                self._rx_pending &= ~(1 << port)
