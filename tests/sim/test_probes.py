"""Kernel probe lane and profiler hook: replay, clamps, and accounting.

Probes (``sim.add_probe``) are read-only observers serviced at their own
cadence; the active-set kernel must replay sample points that land
inside fast-forwarded idle spans so a probe's record is bit-identical
to the dense kernel's — without the probe ever capping a jump.  The
profiler hook (``sim.attach_profiler``) must account every cycle as
either stepped or skipped, on both kernels.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockSuspected, SimulationError
from repro.obs.profile import KernelProfiler
from repro.sim.component import Component
from repro.sim.kernel import Simulator


class Recorder(Component):
    """Records the cycle of every tick; never re-arms on its own."""

    def __init__(self, name: str = "rec") -> None:
        super().__init__(name)
        self.ticks = []

    def tick(self, now: int) -> None:
        self.ticks.append(now)


class SparseWaker(Recorder):
    """Requests one wake-up per cycle in ``schedule`` at cycle 0."""

    def __init__(self, schedule) -> None:
        super().__init__("sparse")
        self.schedule = sorted(set(schedule))

    def tick(self, now: int) -> None:
        super().tick(now)
        if now == 0:
            for cycle in self.schedule:
                self.wake_at(cycle)


class PeriodicProbe:
    """Samples every ``every`` cycles, recording ``(cycle, sim.now)``."""

    def __init__(self, sim: Simulator, every: int) -> None:
        self.sim = sim
        self.every = every
        self.next_cycle = 0
        self.samples = []

    def sample(self, cycle: int) -> None:
        self.next_cycle = cycle + self.every
        self.samples.append((cycle, self.sim.now))


class StuckProbe:
    """Violates the contract: never advances ``next_cycle``."""

    next_cycle = 0

    def sample(self, cycle: int) -> None:
        pass


class TestProbeReplay:
    def test_samples_inside_fast_forwarded_span(self):
        sim = Simulator()
        sim.add_component(Recorder())
        probe = PeriodicProbe(sim, every=7)
        sim.add_probe(probe)
        sim.run(100)
        # one idle jump from 1 to 100, yet every grid point was observed
        assert [c for c, _ in probe.samples] == list(range(0, 100, 7))

    def test_sample_sees_now_equal_to_sample_cycle(self):
        sim = Simulator()
        sim.add_component(Recorder())
        probe = PeriodicProbe(sim, every=13)
        sim.add_probe(probe)
        sim.run(200)
        # now is temporarily rewound to each replayed sample point, so a
        # clock-reading probe observes exactly what dense stepping shows
        assert all(cycle == seen_now for cycle, seen_now in probe.samples)

    def test_series_identical_to_dense_kernel(self):
        schedule = [3, 40, 41, 97, 412]

        def collect(dense):
            sim = Simulator(seed=1, dense=dense)
            sim.add_component(SparseWaker(schedule))
            probe = PeriodicProbe(sim, every=11)
            sim.add_probe(probe)
            sim.run(500)
            return probe.samples

        assert collect(dense=False) == collect(dense=True)

    def test_past_next_cycle_is_clamped_to_now(self):
        sim = Simulator()
        sim.add_component(Recorder())
        sim.run(50)
        probe = PeriodicProbe(sim, every=10)
        probe.next_cycle = 3  # in the past
        sim.add_probe(probe)
        sim.run(30)
        assert probe.samples[0][0] == 50

    def test_non_advancing_probe_raises(self):
        sim = Simulator()
        sim.add_component(Recorder())
        sim.add_probe(StuckProbe())
        with pytest.raises(SimulationError, match="did not advance"):
            sim.run(10)

    def test_probe_replayed_up_to_stall_trip(self):
        sim = Simulator()
        sim.add_component(Recorder())
        probe = PeriodicProbe(sim, every=5)
        sim.add_probe(probe)
        with pytest.raises(DeadlockSuspected, match="suspected deadlock"):
            sim.run_until(lambda: False, max_cycles=10_000, stall_limit=40)
        # the fast-forward that trips the detector still replays the
        # probe grid through the trip cycle, exactly like dense stepping
        assert [c for c, _ in probe.samples] == list(range(0, 40, 5))


class TestProfilerHook:
    def test_every_cycle_is_stepped_or_skipped(self):
        sim = Simulator()
        sim.add_component(SparseWaker([10, 250, 900]))
        prof = KernelProfiler()
        sim.attach_profiler(prof)
        sim.run(1_000)
        assert prof.steps + prof.cycles_skipped == 1_000
        assert prof.fast_forwards > 0
        assert prof.ticks_by_class == {"SparseWaker": 4}

    def test_dense_kernel_never_fast_forwards(self):
        sim = Simulator(dense=True)
        sim.add_component(Recorder())
        prof = KernelProfiler()
        sim.attach_profiler(prof)
        sim.run(100)
        assert prof.steps == 100
        assert prof.cycles_skipped == 0
        assert prof.fast_forwards == 0
        assert prof.ticks_by_class == {"Recorder": 100}

    def test_event_and_backlog_accounting(self):
        sim = Simulator()
        sim.add_component(Recorder())
        fired = []
        sim.schedule(5, lambda: fired.append("a"))
        sim.schedule(5, lambda: fired.append("b"))
        prof = KernelProfiler()
        sim.attach_profiler(prof)
        sim.run(10)
        assert fired == ["a", "b"]
        assert prof.events == 2
        assert prof.backlog_peak >= 0

    def test_detach_stops_recording(self):
        sim = Simulator()
        sim.add_component(SparseWaker([5, 15]))
        prof = KernelProfiler()
        sim.attach_profiler(prof)
        sim.run(10)
        recorded = prof.steps
        sim.attach_profiler(None)
        sim.run(10)
        assert prof.steps == recorded

    def test_profiled_run_matches_unprofiled_ticks(self):
        schedule = [2, 7, 7, 30, 64]

        def ticks(profiled):
            sim = Simulator(seed=3)
            waker = sim.add_component(SparseWaker(schedule))
            if profiled:
                sim.attach_profiler(KernelProfiler())
            sim.run(100)
            return waker.ticks

        assert ticks(profiled=True) == ticks(profiled=False)
