"""Base class for everything the kernel can tick.

The active-set kernel (see :mod:`repro.sim.kernel`) only ticks a
component on cycles the component — or a peer, through a link wake
hook — asked for.  The wake contract for component authors is
documented in ``docs/performance.md``; in short:

* registration schedules one initial wake, so every component ticks at
  least once and can inspect pre-run state (e.g. worms enqueued before
  ``run`` was called);
* a component that still holds work at the end of ``tick`` must re-arm
  itself with ``self.wake_at(now + 1)``;
* a component may go fully dormant while idle — arrivals wake it again
  through the link-level wake hooks wired by ``connect_in``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Component:
    """A named simulation component ticked by the kernel.

    Subclasses implement :meth:`tick`.  Because all inter-component traffic
    crosses links with latency >= 1, a component may only *send* state that
    becomes visible to peers next cycle, so tick order between components
    never changes behaviour.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._sim: "Simulator | None" = None
        # active-set bookkeeping, owned by the kernel: registration index
        # (tick order within a cycle), the set of far cycles this component
        # is already scheduled to wake at (heap-push dedupe), and the
        # next-cycle bucket marker (fast-path dedupe — see Simulator.wake;
        # Link's send/credit paths also read the marker to skip redundant
        # wake calls inline).
        self._index = -1
        self._wake_cycles: Set[int] = set()
        self._wake_marker = -1
        # cycle this component was last marked due (the kernel's
        # scan-based dedup for busy cycles — see Simulator.step)
        self._due_marker = -1
        # input ports whose in-link holds in-flight flits, one bit per
        # port: set by Link on every send (see Link.wake_on_arrival),
        # cleared by receivers that drain by mask — the switches and
        # NIs; the per-flit reference polls its in-links and ignores it
        self._rx_pending = 0

    @property
    def sim(self) -> "Simulator":
        """The simulator this component is registered with."""
        if self._sim is None:
            raise RuntimeError(
                f"component {self.name!r} is not attached to a simulator"
            )
        return self._sim

    def attach(self, sim: "Simulator") -> None:
        """Called by :meth:`Simulator.add_component`; do not call directly."""
        self._sim = sim

    # ------------------------------------------------------------------
    # wake API (the active-set contract)
    # ------------------------------------------------------------------
    def wake_at(self, cycle: int) -> None:
        """Request a tick at ``cycle`` (idempotent per cycle).

        Requests for a cycle already in the past are clamped to the
        current cycle.  Before attachment this is a no-op: attachment
        itself schedules an initial wake, so no pre-attach state is ever
        missed.

        This inlines :meth:`Simulator.wake` (kept in sync with it):
        every flit movement fires at least one wake through the link
        hooks, making this the single most-called function in a run.
        """
        sim = self._sim
        if sim is None or sim.dense:
            return
        if cycle < sim.now:
            cycle = sim.now
        if cycle == sim._bucket_cycle:
            if self._wake_marker != cycle:
                self._wake_marker = cycle
                sim._bucket.append(self._index)
            return
        if cycle in self._wake_cycles:
            return
        self._wake_cycles.add(cycle)
        heappush(sim._wakes, (cycle, self._index))

    def wake_now(self) -> None:
        """Request a tick in the current cycle (idempotent)."""
        if self._sim is not None:
            self._sim.wake(self, self._sim.now)

    def tick(self, now: int) -> None:
        """Advance this component by one cycle.  ``now`` is the cycle index."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
