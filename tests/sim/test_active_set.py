"""Differential tests: the active-set kernel against the dense reference.

The active-set kernel (wake calendar + idle-cycle fast-forward, see
``docs/performance.md``) is a pure performance optimisation — every
observable of a run must be bit-identical to the dense kernel that
ticks every component every cycle.  These tests pin that contract from
two directions:

* kernel-level regression tests that fast-forwarding never skips a
  cycle with a pending wake, calendar event, or time mark, and that
  stall detection trips at the exact cycle (and with the exact message)
  the dense kernel would produce; and
* hypothesis-driven whole-system runs — the workload rows of
  ``tests/differential.py`` on both switch architectures, both routing
  modes, and random seeds — asserting the two kernels agree on cycle
  counts, metric summaries, per-host flit counts, and the kernel
  progress counter.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import SwitchArchitecture
from repro.errors import SimulationError
from repro.routing.base import MulticastRoutingMode
from repro.sim.component import Component
from repro.sim.kernel import Simulator

from tests.differential import (
    IB,
    ROW,
    SQUARE_EXAMPLES,
    SQUARE_ROWS,
    SYNCHRONOUS,
    assert_observables_agree,
    sweep,
)


class Recorder(Component):
    """Records the cycle of every tick; never re-arms on its own."""

    def __init__(self, name: str = "rec") -> None:
        super().__init__(name)
        self.ticks = []

    def tick(self, now: int) -> None:
        self.ticks.append(now)


class SparseWaker(Recorder):
    """Requests one wake-up per cycle in ``schedule`` (at registration
    time every component ticks once at cycle 0; the requested wakes are
    armed there)."""

    def __init__(self, schedule) -> None:
        super().__init__("sparse")
        self.schedule = sorted(set(schedule))

    def tick(self, now: int) -> None:
        super().tick(now)
        if now == 0:
            for cycle in self.schedule:
                self.wake_at(cycle)


class TestFastForwardNeverSkips:
    """Fast-forward must land on — not jump over — scheduled activity."""

    def test_idle_run_still_ends_at_exact_target(self):
        sim = Simulator()
        sim.add_component(Recorder())
        sim.run(1_000)
        assert sim.now == 1_000

    @given(schedule=st.sets(st.integers(1, 500), max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_every_requested_wake_is_ticked_exactly_once(self, schedule):
        sim = Simulator()
        waker = sim.add_component(SparseWaker(schedule))
        sim.run(501)
        assert waker.ticks == [0] + sorted(schedule)

    def test_calendar_event_in_idle_gap_fires_at_its_cycle(self):
        sim = Simulator()
        sim.add_component(Recorder())
        fired = []
        sim.schedule(300, lambda: fired.append(sim.now))
        sim.schedule(305, lambda: fired.append(sim.now))
        sim.run(1_000)
        assert fired == [300, 305]
        assert sim.now == 1_000

    def test_event_waking_a_component_ticks_it_that_cycle(self):
        # events run before ticks, so a wake placed by an event for the
        # current cycle is honoured immediately — even when the kernel
        # fast-forwarded straight to the event cycle
        sim = Simulator()
        rec = sim.add_component(Recorder())
        sim.schedule(400, lambda: sim.wake(rec, sim.now))
        sim.run(1_000)
        assert rec.ticks == [0, 400]

    def test_time_mark_rechecks_now_based_predicate(self):
        # without the mark nothing is scheduled at cycle 37, so the
        # fast-forward would jump straight past the predicate's threshold
        sim = Simulator()
        sim.add_component(Recorder())
        sim.mark_time(37)
        executed = sim.run_until(lambda: sim.now >= 37, max_cycles=10_000)
        assert sim.now == 37
        assert executed == 37

    def test_dense_agrees_on_time_marked_predicate(self):
        sim = Simulator(dense=True)
        sim.add_component(Recorder())
        sim.mark_time(37)  # no-op on the dense kernel
        executed = sim.run_until(lambda: sim.now >= 37, max_cycles=10_000)
        assert (sim.now, executed) == (37, 37)


class TestStallDetectionParity:
    """Skipped idle cycles count exactly as if they had been stepped."""

    @staticmethod
    def _stall(dense: bool, event_cycle=None):
        sim = Simulator(dense=dense)
        sim.add_component(Recorder())
        if event_cycle is not None:
            sim.schedule(event_cycle, lambda: None)
        with pytest.raises(SimulationError) as err:
            sim.run_until(lambda: False, max_cycles=100_000, stall_limit=50)
        return sim.now, str(err.value)

    def test_plain_stall_trips_at_identical_cycle_and_message(self):
        assert self._stall(dense=True) == self._stall(dense=False)

    def test_far_future_noop_event_defers_stall_identically(self):
        # a no-op calendar event far in the future excuses the idle gap
        # before it, but the detector must still trip stall_limit idle
        # cycles after it fires — on both kernels, with the same message
        dense = self._stall(dense=True, event_cycle=10_000)
        active = self._stall(dense=False, event_cycle=10_000)
        assert dense == active
        cycle, _ = active
        assert cycle == 10_000 + 50 + 1  # event cycle + stall_limit + step


class TestWholeSystemDifferential:
    @given(
        architecture=st.sampled_from(list(SwitchArchitecture)),
        mode=st.sampled_from(list(MulticastRoutingMode)),
        seed=st.integers(0, 2**16),
        scenario=st.sampled_from(SQUARE_ROWS),
    )
    @sweep(12, SQUARE_ROWS, **SQUARE_EXAMPLES)
    def test_active_set_matches_dense(
        self, runs, architecture, mode, seed, scenario
    ):
        config = scenario.config(architecture, multicast_mode=mode, seed=seed)
        assert_observables_agree(
            runs, scenario, config, "production", "dense"
        )

    def test_synchronous_replication_matches_dense(self, runs):
        # SYNCHRONOUS is only modelled on the input-buffer switch, so it
        # cannot ride the hypothesis sweep above
        scenario = ROW["hw-multicast"]
        config = scenario.config(IB, seed=5, **SYNCHRONOUS)
        # the production run is test_packed_differential.py's too
        assert_observables_agree(
            runs, scenario, config, "production", "dense", shared=2
        )

    def test_self_check_run_matches_dense(self, runs):
        scenario = ROW["slow-mcast-stream"]
        config = scenario.config(self_check=True, seed=9)
        # the production run is test_packed_differential.py's too
        assert_observables_agree(
            runs, scenario, config, "production", "dense", shared=2
        )
