"""The order of a switch's one queue of dated effects.

A committed run dates what it does at a cycle still ahead of the switch
— a chunk take, a chunk release, a tail's departure — on one queue per
switch, keyed ``(date, phase)`` and settled by the first tick after the
date (``repro.switches.base.DatedEffects``; the
``repro.switches.chunks`` docstring, "The timeline").
Each test pins one rule of that order to the per-flit switch's.
"""

from __future__ import annotations

import pytest

from repro.network.builder import build_network
from repro.switches.base import RELEASE, TAIL, TAKE
from repro.switches.chunks import StoredPacket

from tests.switches.test_central_buffer import (
    one_switch_config,
    run_to_quiescence,
    schedule_unicast,
)
from tests.switches.test_chunks import make_pool, settle


def covered(pool, total, input_port, now):
    """A unicast at ``input_port`` whose first chunk is taken at ``now``
    and whose input's quota covers the rest."""
    stored = StoredPacket(pool, input_port, total, reserve_all=False)
    assert stored.ensure_write_space(now) and stored.cover()
    return stored


def phases(pool):
    """The pool's queued takes, then its queued releases, as ``(date,
    phase)``."""
    effects = pool.dated
    return [(date, phase) for date, phase, _, _ in effects.takes + effects.releases]


class TestQueueOrder:
    @pytest.mark.parametrize("take_first", (True, False))
    def test_a_take_and_a_chunk_release_on_one_date(self, take_first):
        # one shared chunk, held by input 1 until its release at 9; a
        # covered unicast at input 0 opens its second chunk at 9 too.  A
        # switch writes before it reads: whichever was queued first, the
        # take finds the shared chunk still held and draws on the quota
        pool = make_pool(capacity=136, chunk=8, inputs=4, quota=4)
        holder = StoredPacket(pool, 1, 8, reserve_all=True)
        assert holder.try_admit(0) and holder.charge.shared == 1
        stored = covered(pool, 16, input_port=0, now=1)
        if not take_first:
            pool.dated.add(9, RELEASE, holder.charge, 1)
        stored.write_run(1, 16)
        if take_first:
            pool.dated.add(9, RELEASE, holder.charge, 1)
        assert phases(pool) == [(9, TAKE), (9, RELEASE)]
        settle(pool, 10)
        assert (stored.charge.shared, stored.charge.quota) == (0, 2)
        assert pool.free_shared == 1 and not phases(pool)

    def test_a_tail_release_dated_now_is_settled_at_now_plus_one(self):
        # a unicast bypasses an idle switch in one run that carries its
        # tail: the output and the FIFO front are freed for the decisions
        # of the cycle after the tail's, not of its own
        network = build_network(one_switch_config())
        schedule_unicast(network, 0, 0, 7, 16)
        run_to_quiescence(network)
        (switch,) = network.switches
        ((date, phase, outputs, inputs),) = switch._dated.tails
        assert (phase, outputs, inputs) == (TAIL, 1 << 7, 1 << 0)
        assert switch._freed_by(date) == outputs
        switch.tick(date)
        assert switch._dated.tails and switch._inflow[0]
        assert switch._egress_busy == outputs
        switch.tick(date + 1)
        assert not switch._dated.tails and not switch._inflow[0]
        assert switch._egress_busy == switch._ingress_occupied == 0

    def test_a_chunks_last_crossing_is_dated_ahead(self):
        # one branch reads a stored worm to its tail inside a run that
        # ends at 18: the last chunk goes back at 18, like every other
        # chunk at its own crossing, not at the commit cycle
        pool = make_pool()
        stored = StoredPacket(pool, 0, 16, reserve_all=True)
        assert stored.try_admit(0)
        while not stored.fully_written:
            stored.write_flit()
        stored.add_branch(None, 1)
        stored.crossed(8, 10, 3)
        stored.crossed(16, 18, 3)
        assert phases(pool) == [(10, RELEASE), (18, RELEASE)]
        assert pool.used_chunks == 2
        assert [pool.at(cycle).used_chunks for cycle in (9, 10, 17, 18)] == [
            2, 1, 1, 0
        ]
        settle(pool, 19)
        assert pool.used_chunks == 0 and stored.finished

    def test_a_take_date_held_by_another_input_cuts_the_run(self):
        # input 0's run takes chunks at 8, 16 and 24.  Input 1's covered
        # run from 8 would open a chunk at 16 too: two takes of one cycle
        # carry no arbiter order, so it stops short of that boundary
        pool = make_pool(capacity=256, chunk=8, inputs=4, quota=4)
        first = covered(pool, 32, input_port=0, now=0)
        first.write_run(0, 32)
        assert pool.dated.take_dates == {8, 16, 24}
        # a writer whose boundaries miss the held cycles runs through
        third = covered(pool, 32, input_port=2, now=3)
        assert third.write_space(3) == 32
        second = covered(pool, 32, input_port=1, now=8)
        assert second.write_space(8) == 8
        # the take dated 8 is applied at input 0's turn in the write
        # phase of 8, and only there; the cycle is free from then on
        settle(pool, 8)
        pool.dated.take_due(second.charge, 8, pool)
        assert 8 in pool.dated.take_dates
        pool.dated.take_due(first.charge, 8, pool)
        assert pool.dated.take_dates == {16, 24} and first.charge.total == 2
