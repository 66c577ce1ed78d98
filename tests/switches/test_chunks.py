"""Central buffer pool and stored packets: allocation invariants.

The pool guarantees each input port one maximum packet of chunks (the
deadlock-freedom quota) and shares the rest dynamically.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BufferError_, ConfigurationError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, Packet, TrafficClass
from repro.flits.worm import Worm
from repro.switches.base import RELEASE
from repro.switches.chunks import CentralBufferPool, StoredPacket


def make_worm(size=16, universe=8):
    destinations = DestinationSet.from_ids(universe, [1, 2])
    message = Message(0, 0, destinations, size - 1, TrafficClass.MULTICAST, 0)
    packet = Packet(0, message, destinations, 1, size - 1)
    return Worm.root(packet)


def make_pool(capacity=256, chunk=8, inputs=4, quota=4):
    return CentralBufferPool(capacity, chunk, inputs, quota)


def settle(pool, now):
    """What a switch's tick at ``now`` does first to its pool: apply the
    dated takes and releases before ``now``."""
    pool.dated.settle(now, pool, None)


class TestPoolConstruction:
    def test_capacity_split(self):
        pool = make_pool(capacity=256, chunk=8, inputs=4, quota=4)
        assert pool.capacity_chunks == 32
        assert pool.free_shared == 32 - 16
        assert pool.free_quota == [4, 4, 4, 4]
        assert pool.free_chunks == 32

    def test_capacity_must_cover_quotas(self):
        with pytest.raises(ConfigurationError, match="deadlock"):
            make_pool(capacity=64, chunk=8, inputs=4, quota=4)

    def test_capacity_must_be_whole_chunks(self):
        with pytest.raises(ConfigurationError):
            CentralBufferPool(65, 8, 1, 1)
        with pytest.raises(ConfigurationError):
            CentralBufferPool(4, 8, 1, 1)
        with pytest.raises(ConfigurationError):
            CentralBufferPool(8, 0, 1, 1)
        with pytest.raises(ConfigurationError):
            CentralBufferPool(8, 8, 0, 1)

    def test_chunks_for_rounds_up(self):
        pool = make_pool()
        assert pool.chunks_for(1) == 1
        assert pool.chunks_for(8) == 1
        assert pool.chunks_for(9) == 2


class TestTakeAndGiveBack:
    def test_shared_taken_first(self):
        pool = make_pool(capacity=256, chunk=8, inputs=4, quota=4)
        charge = pool.try_take(0, 10, now=0)
        assert charge.shared == 10
        assert charge.quota == 0
        assert pool.free_quota[0] == 4

    def test_quota_covers_overflow(self):
        pool = make_pool(capacity=128, chunk=8, inputs=4, quota=4)
        # shared region is empty: 16 chunks = 4 inputs * 4 quota
        charge = pool.try_take(1, 3, now=0)
        assert charge.shared == 0
        assert charge.quota == 3
        assert pool.free_quota[1] == 1

    def test_refusal_when_own_quota_exhausted(self):
        pool = make_pool(capacity=128, chunk=8, inputs=4, quota=4)
        assert pool.try_take(0, 4, now=0) is not None
        assert pool.try_take(0, 1, now=0) is None
        # other inputs unaffected
        assert pool.try_take(1, 4, now=0) is not None

    def test_give_back_refills_quota_first(self):
        pool = make_pool(capacity=160, chunk=8, inputs=4, quota=4)
        # shared = 4: take 6 -> 4 shared + 2 quota
        charge = pool.try_take(2, 6, now=0)
        assert (charge.shared, charge.quota) == (4, 2)
        pool.give_back(charge, 3, now=1)
        assert pool.free_quota[2] == 4
        assert pool.free_shared == 1
        pool.give_back(charge, 3, now=2)
        assert pool.free_shared == 4

    def test_over_release_rejected(self):
        pool = make_pool()
        charge = pool.try_take(0, 2, now=0)
        with pytest.raises(BufferError_):
            pool.give_back(charge, 3, now=0)

    def test_occupancy_tracked(self):
        pool = make_pool(capacity=256, chunk=8, inputs=4, quota=4)
        charge = pool.try_take(0, 8, now=0)
        pool.give_back(charge, 8, now=10)
        assert pool.occupancy.average(20) == pytest.approx(4.0)
        assert pool.occupancy.peak == 8


class TestAdmission:
    def test_admit_succeeds_with_space(self):
        pool = make_pool()
        stored = StoredPacket(pool, 0, total_flits=16, reserve_all=True)
        assert stored.try_admit(0)
        assert stored.chunks_held == 2

    def test_admit_idempotent(self):
        pool = make_pool()
        stored = StoredPacket(pool, 0, 16, reserve_all=True)
        assert stored.try_admit(0)
        assert stored.try_admit(1)
        assert stored.chunks_held == 2

    def test_admit_waits_for_own_quota(self):
        pool = make_pool(capacity=128, chunk=8, inputs=4, quota=4)
        first = StoredPacket(pool, 0, 32, reserve_all=True)  # 4 chunks
        assert first.try_admit(0)
        second = StoredPacket(pool, 0, 32, reserve_all=True)
        assert not second.try_admit(0)
        # a different input's packet is not blocked
        other = StoredPacket(pool, 1, 32, reserve_all=True)
        assert other.try_admit(0)

    def test_admit_on_incremental_packet_rejected(self):
        pool = make_pool()
        stored = StoredPacket(pool, 0, 16, reserve_all=False)
        with pytest.raises(BufferError_):
            stored.try_admit(0)


class TestStoredPacket:
    def admitted(self, pool, total, input_port=0):
        stored = StoredPacket(pool, input_port, total, reserve_all=True)
        assert stored.try_admit(0)
        return stored

    def test_admitted_packet_always_writable(self):
        pool = make_pool()
        stored = self.admitted(pool, 16)
        for _ in range(16):
            assert stored.ensure_write_space(now=0)
            stored.write_flit()
        assert stored.fully_written

    def test_incremental_packet_allocates_per_chunk(self):
        pool = make_pool(capacity=128, chunk=8, inputs=4, quota=4)
        stored = StoredPacket(pool, 0, 16, reserve_all=False)
        assert stored.ensure_write_space(0)
        assert pool.free_quota[0] == 3
        for _ in range(8):
            stored.write_flit()
        assert stored.ensure_write_space(0)
        assert pool.free_quota[0] == 2

    def test_incremental_stalls_when_quota_exhausted(self):
        pool = make_pool(capacity=128, chunk=8, inputs=4, quota=4)
        hog = self.admitted(pool, 32)  # takes the whole input-0 quota
        stalled = StoredPacket(pool, 0, 8, reserve_all=False)
        assert not stalled.ensure_write_space(0)

    def test_write_past_end_rejected(self):
        pool = make_pool()
        stored = self.admitted(pool, 2)
        stored.write_flit()
        stored.write_flit()
        with pytest.raises(BufferError_):
            stored.ensure_write_space(0)

    def test_single_branch_lifecycle_frees_everything(self):
        pool = make_pool()
        stored = self.admitted(pool, 12)
        cursor = stored.add_branch(make_worm(12), out_port=3)
        for _ in range(12):
            stored.ensure_write_space(0)
            stored.write_flit()
        for _ in range(12):
            assert stored.readable(cursor)
            stored.branch_read(cursor, now=0)
        assert stored.finished
        assert pool.free_chunks == pool.capacity_chunks

    def test_read_cannot_pass_write(self):
        pool = make_pool()
        stored = self.admitted(pool, 8)
        cursor = stored.add_branch(make_worm(8), 0)
        assert not stored.readable(cursor)
        with pytest.raises(BufferError_):
            stored.branch_read(cursor, now=0)

    def test_chunks_freed_by_slowest_branch(self):
        pool = make_pool()
        stored = self.admitted(pool, 16)
        fast = stored.add_branch(make_worm(16), 0)
        slow = stored.add_branch(make_worm(16), 1)
        for _ in range(16):
            stored.ensure_write_space(0)
            stored.write_flit()
        for _ in range(16):
            stored.branch_read(fast, 0)
        assert pool.free_chunks == pool.capacity_chunks - 2
        for _ in range(8):
            stored.branch_read(slow, 0)
        assert pool.free_chunks == pool.capacity_chunks - 1
        for _ in range(8):
            stored.branch_read(slow, 0)
        assert stored.finished
        assert pool.free_chunks == pool.capacity_chunks

    @given(
        total=st.integers(1, 64),
        branches=st.integers(1, 6),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_interleaving_conserves_chunks(self, total, branches, seed):
        """Any write/read interleaving frees exactly what was reserved."""
        import random

        rng = random.Random(seed)
        pool = make_pool(capacity=256, chunk=8, inputs=4, quota=8)
        stored = StoredPacket(pool, seed % 4, total, reserve_all=True)
        assert stored.try_admit(0)
        cursors = [
            stored.add_branch(make_worm(max(total, 2)), port)
            for port in range(branches)
        ]
        now = 0
        while not stored.finished:
            now += 1
            choices = []
            if stored.flits_written < total:
                choices.append("write")
            choices.extend(
                ("read", c) for c in cursors if stored.readable(c)
            )
            action = rng.choice(choices)
            if action == "write":
                assert stored.ensure_write_space(now)
                stored.write_flit()
            else:
                stored.branch_read(action[1], now)
            assert 0 <= pool.free_chunks <= pool.capacity_chunks
        assert pool.free_chunks == pool.capacity_chunks


class TestDatedTakes:
    """A covered unicast's write run dates the takes of the chunks it
    opens (chunks.py, "The timeline")."""

    @staticmethod
    def covered(pool, total, input_port=0, now=0):
        stored = StoredPacket(pool, input_port, total, reserve_all=False)
        assert stored.ensure_write_space(now) and stored.cover()
        return stored

    def test_coverage_is_the_input_quota_after_the_first_take(self):
        pool = make_pool(capacity=128, chunk=8, inputs=4, quota=4)
        assert pool.free_shared == 0
        assert self.covered(pool, 32).covered  # 1 taken, 3 of 3 to come
        partly_held = StoredPacket(pool, 1, 8, reserve_all=True)
        assert partly_held.try_admit(0)
        longer = StoredPacket(pool, 1, 32, reserve_all=False)
        assert longer.ensure_write_space(0) and not longer.cover()
        # an uncovered packet's space is its current chunk
        assert longer.write_space(0) == longer.owned_space() == 8

    def test_a_run_dates_a_take_per_chunk_it_opens(self):
        pool = make_pool(capacity=160, chunk=8, inputs=4, quota=4)
        stored = self.covered(pool, 20, now=10)
        assert stored.write_space(10) == 20
        stored.write_run(10, 20)
        assert [entry[0] for entry in pool.dated.takes] == [18, 26]
        assert stored.chunks_taken == 3 and stored.owned_space() == 4
        # held until their cycles, on the pool and in its view
        assert pool.used_chunks == 1
        assert pool.at(17).used_chunks == 1
        assert pool.at(18).used_chunks == 2
        assert (pool.at(26).used_chunks, pool.at(26).free_shared) == (3, 1)
        # applied before anything at a later cycle: shared first
        settle(pool, 27)
        assert not pool.dated.takes and stored.charge.shared == 3
        assert not pool.dated.take_dates

    def test_a_run_stops_short_of_a_cycle_another_take_holds(self):
        pool = make_pool(capacity=256, chunk=8, inputs=4, quota=4)
        first = self.covered(pool, 32, input_port=0, now=0)
        first.write_run(0, 32)  # takes at 8, 16, 24
        second = self.covered(pool, 32, input_port=1, now=3)
        assert second.write_space(3) == 32  # boundaries at 11, 19, 27
        third = self.covered(pool, 32, input_port=2, now=8)
        assert third.write_space(8) == 8  # its boundary at 16 is held

    def test_a_take_goes_before_a_release_of_its_date(self):
        # one shared chunk, freed at 9 by a release dated then: the take
        # dated 9 finds it still held, and draws on the quota
        pool = make_pool(capacity=136, chunk=8, inputs=4, quota=4)
        holder = StoredPacket(pool, 1, 8, reserve_all=True)
        assert holder.try_admit(0) and holder.charge.shared == 1
        pool.dated.add(9, RELEASE, holder.charge, 1)
        stored = self.covered(pool, 16, now=1)
        stored.write_run(1, 16)  # the second chunk opens at 9
        assert stored.charge.quota == 1
        assert pool.at(9).free_shared == 1
        assert pool.at(9).free_quota[0] == 2
        settle(pool, 10)
        pool.give_back(stored.charge, 1, 10)
        assert stored.charge.quota == 1 and pool.free_shared == 1

    def test_a_dated_take_holds_the_charge_not_the_packet(self):
        # the packet points at the pool: queued itself it would be a
        # reference cycle until the take is applied
        pool = make_pool(capacity=160, chunk=8, inputs=4, quota=4)
        stored = self.covered(pool, 24)
        stored.write_run(0, 24)
        charge, packet = stored.charge, weakref.ref(stored)
        gc.disable()
        try:
            del stored
            assert packet() is None
        finally:
            gc.enable()
        settle(pool, 100)
        assert charge.total == 3 and not pool.dated.takes


class TestPoolStateful:
    """Multi-packet, multi-input pool accounting under random schedules."""

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_many_packets_conserve_capacity(self, seed):
        import random

        rng = random.Random(seed)
        pool = make_pool(capacity=512, chunk=8, inputs=4, quota=8)
        live = []  # (stored, cursors)
        for _ in range(120):
            action = rng.random()
            if action < 0.35 and len(live) < 8:
                input_port = rng.randrange(4)
                total = rng.randrange(1, 60)
                stored = StoredPacket(
                    pool, input_port, total, reserve_all=True
                )
                if stored.try_admit(0):
                    cursors = [
                        stored.add_branch(make_worm(max(total, 2)), p)
                        for p in range(rng.randrange(1, 4))
                    ]
                    live.append((stored, cursors))
            elif live:
                stored, cursors = rng.choice(live)
                if stored.flits_written < stored.total_flits and rng.random() < 0.6:
                    assert stored.ensure_write_space(0)
                    stored.write_flit()
                else:
                    readable = [c for c in cursors if stored.readable(c)]
                    if readable:
                        stored.branch_read(rng.choice(readable), 0)
                if stored.finished:
                    live.remove((stored, cursors))
            used = sum(s.chunks_held for s, _ in live)
            assert pool.used_chunks == used, "pool accounting drifted"
            assert 0 <= pool.free_shared
            assert all(0 <= q <= pool.quota_chunks for q in pool.free_quota)
        # drain everything still live
        for stored, cursors in live:
            while stored.flits_written < stored.total_flits:
                assert stored.ensure_write_space(0)
                stored.write_flit()
            for cursor in cursors:
                while cursor.read < stored.total_flits:
                    stored.branch_read(cursor, 0)
        assert pool.free_chunks == pool.capacity_chunks
