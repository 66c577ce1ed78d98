"""The active-set simulation kernel.

One :class:`Simulator` owns the clock, an event calendar for future
callbacks, and the registry of components.  The kernel deliberately has
no knowledge of networks, flits, or switches — it only advances time.

Components are not ticked unconditionally every cycle: they register
*wake-ups* (:meth:`~repro.sim.component.Component.wake_at` /
:meth:`~repro.sim.component.Component.wake_now`) and the kernel keeps a
wake calendar keyed by ``(cycle, registration index)``, so ticks within
one cycle still run in registration order.  When nothing — no calendar
event, no wake — is due, :meth:`run` and :meth:`run_until` fast-forward
``now`` directly to the next scheduled activity instead of spinning
through idle cycles.  Stall detection counts those *simulated* idle
cycles exactly as if they had been stepped one by one, so results,
error cycles and messages are bit-identical to the dense reference
kernel (``Simulator(dense=True)``), which still ticks every component
every cycle and exists for differential testing (see
``tests/sim/test_active_set.py`` and ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Protocol, Tuple

from repro.errors import (
    CycleBudgetExhausted,
    DeadlockSuspected,
    SimulationError,
)
from repro.sim.component import Component
from repro.sim.rng import RngStreams

Event = Callable[[], None]


class Probe(Protocol):
    """A read-only observer serviced at its own cadence.

    Unlike a component wake, a probe never keeps the kernel awake: the
    active-set kernel fast-forwards over idle spans at full stride and
    *replays* the probe's sample points inside the skipped gap (see
    :meth:`Simulator.add_probe`).  A probe must not mutate simulation
    state — no wakes, no events, no RNG draws.
    """

    #: next cycle this probe wants to sample; ``sample`` must advance it
    next_cycle: int

    def sample(self, cycle: int) -> None:
        """Observe the simulation at ``cycle`` (``sim.now == cycle``)."""
        ...


class ProfilerHook(Protocol):
    """Kernel-side profiling callbacks (see ``repro.obs.profile``).

    Installed with :meth:`Simulator.attach_profiler`; every call site in
    the kernel is behind a ``prof is not None`` test so a run without a
    profiler pays one local ``None`` check per step, nothing more.
    """

    def record_tick(self, component: Component) -> None:
        """One component tick is about to run."""
        ...

    def record_step(self, now: int, events: int, backlog: int) -> None:
        """A cycle was stepped: ``events`` calendar events fired and
        ``backlog`` wake-ups/events remain scheduled."""
        ...

    def record_fast_forward(self, start: int, skipped: int) -> None:
        """The clock jumped from ``start`` over ``skipped`` idle cycles."""
        ...


class Simulator:
    """Clock, calendar and component registry.

    Parameters
    ----------
    seed:
        Root seed for :attr:`rng`; all component randomness should be drawn
        from named streams of this factory.
    dense:
        When true, disable the active set entirely: every component is
        ticked every cycle and fast-forwarding never happens.  The dense
        kernel is the behavioural reference the active-set kernel is
        differentially tested against; results are bit-identical.

    Notes
    -----
    The kernel exposes a *progress marker* (:attr:`progress`) that
    components bump whenever they move a flit or deliver a message.
    Facades use it to detect a wedged simulation (see
    :class:`repro.errors.DeadlockSuspected`) without the kernel needing to
    understand what progress means.
    """

    def __init__(self, seed: int = 0, dense: bool = False) -> None:
        self.now = 0
        self.rng = RngStreams(seed)
        self.progress = 0
        self.dense = dense
        self._components: List[Component] = []
        self._calendar: List[Tuple[int, int, Event]] = []
        self._sequence = itertools.count()
        #: far pending wake-ups as ``(cycle, registration index)`` heap
        #: keys; per-component cycle sets make pushes idempotent
        self._wakes: List[Tuple[int, int]] = []
        #: fast path for the overwhelmingly common wake target (the next
        #: cycle — re-arms and latency-1 link hooks): a flat list of
        #: component indices due at ``_bucket_cycle``, deduplicated by a
        #: per-component marker instead of heap + set machinery
        self._bucket: List[int] = []
        self._bucket_cycle = 0
        #: cycles where a time-dependent ``run_until`` predicate may flip
        #: (see :meth:`mark_time`)
        self._time_marks: List[int] = []
        #: read-only observers serviced at their own cadence (samplers);
        #: they never cap a fast-forward jump — skipped sample points
        #: are replayed before the clock moves (see :meth:`add_probe`)
        self._probes: List[Probe] = []
        #: optional kernel profiler (see :meth:`attach_profiler`); every
        #: call site is behind a ``prof is not None`` test
        self._prof: Optional[ProfilerHook] = None
        #: set by ``Network.close()``, which also empties the component
        #: list: :meth:`run` and :meth:`run_until` then refuse
        self._closed = False

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_component(self, component: Component) -> Component:
        """Register ``component`` with the kernel; returns it.

        Registration schedules one initial wake at the current cycle, so
        every component ticks at least once and can observe state queued
        before the run started.  After that it is ticked only on cycles
        it (or a link wake hook) asked for — unless the kernel is
        ``dense``, in which case it is ticked every cycle.
        """
        component._index = len(self._components)
        component.attach(self)
        self._components.append(component)
        self.wake(component, self.now)
        return component

    @property
    def components(self) -> List[Component]:
        """Registered components in tick order (read-only view by convention)."""
        return self._components

    def add_probe(self, probe: Probe) -> None:
        """Register a read-only observer serviced at its own cadence.

        A probe exposes ``next_cycle`` — the next cycle it wants to
        sample — and a ``sample(cycle)`` method that must advance
        ``next_cycle`` strictly past ``cycle``.  Probes are serviced at
        the end of every stepped cycle *and* inside fast-forwarded idle
        spans: before the clock jumps from ``A`` to ``B`` the kernel
        replays every due sample point in ``[A, B-1]`` with ``now``
        temporarily set to the sample cycle.  An idle span is idle
        precisely because no component state changes inside it, so the
        replayed observations are bit-identical to stepping the span on
        the dense kernel — without the probe ever capping a jump.

        Probes must be read-only: no wakes, no events, no RNG draws.
        ``next_cycle`` values in the past are clamped to ``now``.
        """
        if probe.next_cycle < self.now:
            probe.next_cycle = self.now
        self._probes.append(probe)

    def attach_profiler(self, profiler: Optional[ProfilerHook]) -> None:
        """Install (or, with ``None``, remove) the kernel profiler hook.

        With no profiler attached the kernel pays one local ``None``
        test per step — the zero-overhead contract shared with the
        telemetry layer (see ``docs/observability.md``).
        """
        self._prof = profiler

    # ------------------------------------------------------------------
    # wake calendar
    # ------------------------------------------------------------------
    def wake(self, component: Component, cycle: int) -> None:
        """Schedule a tick of ``component`` at ``cycle`` (idempotent).

        Cycles in the past are clamped to ``now`` (useful when a test
        drives ticks by hand).  In dense mode this is a no-op — every
        component is ticked every cycle anyway.

        :meth:`Component.wake_at` inlines this logic as its fast path;
        any change here must be mirrored there.
        """
        if self.dense:
            return
        if cycle < self.now:
            cycle = self.now
        if cycle == self._bucket_cycle:
            if component._wake_marker != cycle:
                component._wake_marker = cycle
                self._bucket.append(component._index)
            return
        if cycle in component._wake_cycles:
            return
        component._wake_cycles.add(cycle)
        heapq.heappush(self._wakes, (cycle, component._index))

    def mark_time(self, cycle: int) -> None:
        """Declare that a ``run_until`` predicate may flip at ``cycle``.

        Fast-forwarding assumes the predicate is constant across a gap
        with no events and no wakes — true for predicates that only read
        component state, but not for ones that also compare ``sim.now``
        against a threshold (e.g. "generation window over").  A time mark
        caps every fast-forward jump at ``cycle`` so the predicate is
        re-checked there.  Marks are *not* calendar events: they do not
        tick anything, reset stall accounting, or count as pending work.
        Workloads declare theirs via
        :meth:`repro.traffic.base.Workload.time_marks`.
        """
        if self.dense or cycle <= self.now:
            return
        heapq.heappush(self._time_marks, cycle)

    def _next_time_mark(self) -> Optional[int]:
        """Earliest future time mark, discarding stale ones."""
        marks = self._time_marks
        while marks and marks[0] <= self.now:
            heapq.heappop(marks)
        return marks[0] if marks else None

    # ------------------------------------------------------------------
    # event calendar
    # ------------------------------------------------------------------
    def schedule(self, delay: int, event: Event) -> None:
        """Run ``event`` ``delay`` cycles from now (``delay`` >= 0).

        Events scheduled for cycle *t* run at the start of cycle *t*,
        before any component ticks.  Events scheduled for the same cycle
        run in scheduling order.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule_at(self.now + delay, event)

    def schedule_at(self, cycle: int, event: Event) -> None:
        """Run ``event`` at the start of the given absolute ``cycle``."""
        if cycle < self.now:
            raise ValueError(
                f"cannot schedule event in the past (now={self.now}, at={cycle})"
            )
        heapq.heappush(self._calendar, (cycle, next(self._sequence), event))

    @property
    def pending_events(self) -> int:
        """Number of calendar events not yet executed."""
        return len(self._calendar)

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending calendar event, or ``None``."""
        if not self._calendar:
            return None
        return self._calendar[0][0]

    # ------------------------------------------------------------------
    # progress accounting
    # ------------------------------------------------------------------
    def note_progress(self) -> None:
        """Record that observable work happened this cycle."""
        self.progress += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one cycle: calendar events for ``now``, then due ticks.

        In dense mode every component ticks; otherwise only components
        with a wake-up due this cycle tick, in registration order (the
        wake heap is keyed ``(cycle, registration index)``).  An event
        may wake a component for the current cycle — events run first,
        so the wake is honoured this very cycle.
        """
        now = self.now
        calendar = self._calendar
        prof = self._prof
        events = 0
        if prof is not None:
            while calendar and calendar[0][0] == now:
                heapq.heappop(calendar)[2]()
                events += 1
        else:
            while calendar and calendar[0][0] == now:
                heapq.heappop(calendar)[2]()
        if self.dense:
            if prof is not None:
                for component in self._components:
                    prof.record_tick(component)
                    component.tick(now)
            else:
                for component in self._components:
                    component.tick(now)
        else:
            components = self._components
            if self._bucket_cycle == now:
                due = self._bucket
                # fresh bucket for the re-arms the ticks below will issue
                self._bucket = []
                self._bucket_cycle = now + 1
            else:
                if self._bucket_cycle < now:
                    # stale empty bucket (fast-forward jumped past it);
                    # retarget so re-arms take the fast path again
                    self._bucket_cycle = now + 1
                due = []
            wakes = self._wakes
            while wakes and wakes[0][0] <= now:
                cycle, index = heapq.heappop(wakes)
                components[index]._wake_cycles.discard(cycle)
                due.append(index)
            if due:
                if 2 * len(due) >= len(components):
                    # busy cycle: most components are due, so mark and
                    # scan registration order instead of sorting — same
                    # ascending tick order, same at-most-once dedup
                    for index in due:
                        components[index]._due_marker = now
                    if prof is not None:
                        for component in components:
                            if component._due_marker == now:
                                prof.record_tick(component)
                                component.tick(now)
                    else:
                        for component in components:
                            if component._due_marker == now:
                                component.tick(now)
                elif prof is not None:
                    due.sort()
                    last = -1
                    for index in due:
                        if index == last:
                            continue  # at most one tick per component per cycle
                        last = index
                        prof.record_tick(components[index])
                        components[index].tick(now)
                else:
                    due.sort()
                    last = -1
                    for index in due:
                        if index == last:
                            continue  # at most one tick per component per cycle
                        last = index
                        components[index].tick(now)
        if prof is not None:
            prof.record_step(
                now,
                events,
                len(calendar) + len(self._wakes) + len(self._bucket),
            )
        if self._probes:
            self._fire_probes(now)
        self.now = now + 1

    def _fire_probes(self, limit: int) -> None:
        """Service every probe sample point at or before ``limit``.

        ``now`` is temporarily set to each due sample cycle so a probe
        that reads the clock (e.g. a windowed-rate gauge) observes the
        same value it would on the dense kernel, then restored.
        """
        saved = self.now
        probes = self._probes
        while True:
            due: Optional[int] = None
            for probe in probes:
                cycle = probe.next_cycle
                if cycle <= limit and (due is None or cycle < due):
                    due = cycle
            if due is None:
                break
            self.now = due
            for probe in probes:
                if probe.next_cycle == due:
                    probe.sample(due)
                    if probe.next_cycle <= due:
                        raise SimulationError(
                            f"probe {probe!r} did not advance next_cycle "
                            f"past {due}"
                        )
        self.now = saved

    def _skip_to(self, cycle: int) -> None:
        """Jump the clock to ``cycle`` without stepping the gap.

        Due probe sample points inside the gap are replayed first, and
        the skipped span is reported to the profiler if one is attached.
        """
        if self._probes:
            self._fire_probes(cycle - 1)
        prof = self._prof
        if prof is not None:
            prof.record_fast_forward(self.now, cycle - self.now)
        self.now = cycle

    def _next_activity_cycle(self) -> Optional[int]:
        """Earliest cycle with a calendar event or a wake-up, or ``None``."""
        best = self._calendar[0][0] if self._calendar else None
        if self._wakes and (best is None or self._wakes[0][0] < best):
            best = self._wakes[0][0]
        if self._bucket and (best is None or self._bucket_cycle < best):
            best = self._bucket_cycle
        return best

    def run(self, cycles: int) -> None:
        """Advance the clock by ``cycles`` cycles.

        The active-set kernel fast-forwards over spans with no scheduled
        activity; the clock still ends exactly ``cycles`` later.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if self._closed:
            raise SimulationError("the network of this simulator is closed")
        if self.dense:
            for _ in range(cycles):
                self.step()
            return
        target = self.now + cycles
        while self.now < target:
            upcoming = self._next_activity_cycle()
            if upcoming is None or upcoming >= target:
                self._skip_to(target)
                return
            if upcoming > self.now:
                self._skip_to(upcoming)
            self.step()

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int,
        stall_limit: Optional[int] = None,
    ) -> int:
        """Step until ``predicate()`` is true; return cycles executed.

        Parameters
        ----------
        predicate:
            Checked before each cycle; the run stops as soon as it holds.
            Fast-forwarding re-checks it at every cycle with scheduled
            activity and at every :meth:`mark_time` cycle; a predicate
            that can flip on ``sim.now`` alone must have its threshold
            declared as a time mark.
        max_cycles:
            Hard bound on cycles to execute; exceeding it raises
            :class:`~repro.errors.CycleBudgetExhausted`.
        stall_limit:
            If given, raise :class:`~repro.errors.DeadlockSuspected` when no
            component reports progress *and* no calendar event fires for
            this many consecutive cycles while the predicate is false —
            the signature of a deadlocked network.  Idle cycles spent
            waiting for a *pending* calendar event are excused — they
            never trip the detector — but they no longer reset the
            counter either, so a far-future no-op event merely defers
            detection until ``stall_limit`` idle cycles after it fires.
            Skipped idle gaps count exactly as if they had been stepped.
        """
        if self._closed:
            raise SimulationError("the network of this simulator is closed")
        executed = 0
        last_progress = self.progress
        stalled = 0
        while not predicate():
            if executed >= max_cycles:
                raise CycleBudgetExhausted(
                    f"predicate still false after {max_cycles} cycles"
                )
            if not self.dense:
                skipped = self._fast_forward(
                    max_cycles - executed, stalled, stall_limit
                )
                if skipped:
                    executed += skipped
                    stalled += skipped
                    continue
            event_this_cycle = (
                bool(self._calendar) and self._calendar[0][0] == self.now
            )
            self.step()
            executed += 1
            if self.progress != last_progress or event_this_cycle:
                last_progress = self.progress
                stalled = 0
                continue
            stalled += 1
            if stall_limit is not None and stalled >= stall_limit:
                if self.next_event_cycle() is not None:
                    # Idle gap before a scheduled event: not a deadlock —
                    # future work exists.  The counter keeps growing (it
                    # is *not* reset), so once the calendar drains the
                    # detector trips after at most stall_limit further
                    # idle cycles.
                    continue
                raise DeadlockSuspected(
                    f"no progress for {stalled} cycles at cycle "
                    f"{self.now}; suspected deadlock"
                )
        return executed

    def _fast_forward(
        self,
        budget_left: int,
        stalled: int,
        stall_limit: Optional[int],
    ) -> int:
        """Skip idle cycles; return how many were skipped (0: step instead).

        The jump is capped at the next calendar event or wake-up, the
        next time mark, the cycle budget, and — when the calendar is
        empty — the cycle where the stall detector would trip, which is
        raised here with the exact cycle and message the dense kernel
        would produce.
        """
        upcoming = self._next_activity_cycle()
        if upcoming is not None and upcoming <= self.now:
            return 0
        if upcoming is None:
            jump = budget_left
        else:
            jump = min(upcoming - self.now, budget_left)
        mark = self._next_time_mark()
        if mark is not None and mark - self.now < jump:
            jump = mark - self.now
        if stall_limit is not None and not self._calendar:
            trip = stall_limit - stalled
            if trip <= jump:
                self._skip_to(self.now + trip)
                raise DeadlockSuspected(
                    f"no progress for {stall_limit} cycles at cycle "
                    f"{self.now}; suspected deadlock"
                )
        self._skip_to(self.now + jump)
        return jump

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now}, components={len(self._components)}, "
            f"pending_events={self.pending_events})"
        )
