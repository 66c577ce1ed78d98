"""Chunked central-buffer storage (paper section 4).

The SP2-style central buffer is a shared RAM organised in fixed-size
*chunks*; packets queued for an output port occupy linked chunks.  For
multidestination worms the paper's deadlock-freedom rule requires that a
worm be *admitted* only once the switch can guarantee it will eventually
be completely buffered.

A single shared pool cannot give that guarantee: a worm travelling up
could hold chunks a descending worm needs, whose own chunks are needed by
other ascending worms — a cyclic buffer dependency between switch levels
that genuinely deadlocks (our stress tests reproduce it).  The SP-switch
solution, which we model, is a **per-input quota**: the buffer always
retains one maximum-packet's worth of chunks per input port, and a worm's
full-packet reservation waits only on *its own input's* quota.  The quota
is freed exclusively by earlier packets from the same input, which drain
by induction on the acyclic up*/down* route order, so every admission
eventually succeeds.  Capacity beyond the quotas forms a *shared* region
that any input may use opportunistically — this is what makes the central
buffer dynamically shared and superior to static input buffers.

A stored multidestination packet is written once; each replicated branch
holds its own read cursor, and a chunk is freed when the *slowest* branch
has read past it (reference-counted sharing, as in the paper's design):
every chunk counts the branches that have crossed its end and keeps the
latest of their crossing cycles, and goes back to the pool at that cycle.

**The timeline.**  A switch that commits a run of flits ahead of time
(:mod:`repro.switches.central_buffer`) dates what the run will do here
on its queue of dated effects (:class:`repro.switches.base.
DatedEffects`) instead of doing it cycle by cycle.  A write run
advances ``flits_written`` at once and records the cycle of its last
write (:meth:`StoredPacket.written_by`).  A write run of a *covered*
unicast — one whose input's free quota held every chunk it still
needed at its first write (:meth:`StoredPacket.cover`) — crosses chunk
boundaries and dates a take of each chunk it opens at the cycle of the
boundary's write: shared region first, else this input's quota, as
:meth:`~CentralBufferPool.try_take` would, and never refused, for
nothing but this packet draws on that quota while it is the front of
its input.  A read run registers each chunk end it will cross with the
cycle of the crossing (:meth:`StoredPacket.crossed`), the packet's end
too when it carries the tail, so a chunk's release — the last chunk's
at the tail's cycle — may be dated ahead.

The queue applies them at the start of the switch's first tick after
their date, a take before a release of the same date, for a switch
writes before it reads: a release dated *d* is seen by every allocation
after *d* and by none at *d* or before, as on the per-flit switch.  A
take dated the cycle of a tick is applied in its write phase, at its
input's turn in the write arbiter's order (:meth:`~repro.switches.base.
DatedEffects.take_due`).  A settled take has no such turn, so at most
one take is dated per cycle: a covered run stops short of a chunk
boundary whose cycle another input's take holds
(:meth:`StoredPacket.write_space`).  Two takes of one cycle cannot be
ranked when the runs are committed: :meth:`~repro.switches.arbiter.
RoundRobinArbiter.grant_batch` sets the pointer one past each cycle's
last winner, so the order at *d* depends on which inputs ask at *d* and
before — on flits not yet sent.  And it matters: a take draws on the
shared region first, so the first of two may get the last shared chunk
and the second draw on its quota.  :meth:`CentralBufferPool.at` is the
one reader of the pool from outside: the pool as of the end of a cycle,
the takes and releases dated up to it applied.
"""

from __future__ import annotations

import math
from copy import copy
from typing import List, Optional

from repro.errors import BufferError_, ConfigurationError
from repro.flits.worm import Worm
from repro.sim.stats import TimeWeightedAverage
from repro.switches.base import RELEASE, TAKE, DatedEffects


class CentralBufferPool:
    """The chunk store of one central-buffer switch.

    Parameters
    ----------
    capacity_flits:
        Total buffer size in flits (a whole number of chunks).
    chunk_flits:
        Chunk granularity.
    num_inputs:
        Input ports sharing the buffer.
    quota_chunks:
        Chunks permanently guaranteed to each input (at least the largest
        packet, enforced by the network configuration); the remainder is
        the shared region.
    dated:
        Its switch's queue of dated effects (else a queue of its own).
    """

    def __init__(
        self,
        capacity_flits: int,
        chunk_flits: int,
        num_inputs: int,
        quota_chunks: int,
        dated: Optional[DatedEffects] = None,
    ) -> None:
        if chunk_flits < 1:
            raise ConfigurationError("chunk_flits must be at least 1")
        if capacity_flits < chunk_flits:
            raise ConfigurationError(
                "central buffer must hold at least one chunk"
            )
        if capacity_flits % chunk_flits:
            raise ConfigurationError(
                "central buffer capacity must be a whole number of chunks"
            )
        if num_inputs < 1:
            raise ConfigurationError("need at least one input port")
        if quota_chunks < 1:
            raise ConfigurationError("quota_chunks must be at least 1")
        self.chunk_flits = chunk_flits
        self.capacity_chunks = capacity_flits // chunk_flits
        self.num_inputs = num_inputs
        self.quota_chunks = quota_chunks
        if self.capacity_chunks < num_inputs * quota_chunks:
            raise ConfigurationError(
                f"central buffer of {self.capacity_chunks} chunks cannot "
                f"guarantee {quota_chunks} chunks to each of {num_inputs} "
                f"inputs; the deadlock-freedom rule would be violated"
            )
        self.free_shared = self.capacity_chunks - num_inputs * quota_chunks
        self.free_quota: List[int] = [quota_chunks] * num_inputs
        # running count of held chunks, kept in lockstep with the free
        # counters so per-chunk bookkeeping never sums the quota list
        self._used_chunks = 0
        self.occupancy = TimeWeightedAverage()
        #: where the dated takes and releases queue: an entry holds a
        #: charge, never the packet, which points at the pool
        self.dated = DatedEffects() if dated is None else dated
        #: chunks ever given back: a count that only grows, so a take
        #: and a release between two looks cannot cancel out in it
        self.chunks_returned = 0

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def chunks_for(self, flits: int) -> int:
        """Chunks needed to store ``flits`` flits."""
        return math.ceil(flits / self.chunk_flits)

    # ------------------------------------------------------------------
    # allocation (used by StoredPacket)
    # ------------------------------------------------------------------
    def try_take(
        self, input_port: int, chunks: int, now: int
    ) -> Optional["ChunkCharge"]:
        """Atomically take ``chunks``, shared region first.

        Returns the charge breakdown, or ``None`` when the shared region
        plus this input's remaining quota cannot cover the request (the
        caller retries next cycle; the quota guarantee bounds the wait).
        """
        if chunks < 1:
            raise ValueError("chunks must be positive")
        from_shared = min(self.free_shared, chunks)
        from_quota = chunks - from_shared
        if from_quota > self.free_quota[input_port]:
            return None
        self.free_shared -= from_shared
        self.free_quota[input_port] -= from_quota
        self._used_chunks += chunks
        self.occupancy.update(now, self._used_chunks)
        return ChunkCharge(input_port, from_shared, from_quota)

    def give_back(self, charge: "ChunkCharge", chunks: int, now: int) -> None:
        """Return ``chunks`` of a charge, refilling the quota first."""
        if chunks < 0:
            raise ValueError("chunks must be non-negative")
        if chunks > charge.shared + charge.quota:
            raise BufferError_("central buffer chunk over-release")
        to_quota = min(chunks, charge.quota)
        to_shared = chunks - to_quota
        charge.quota -= to_quota
        charge.shared -= to_shared
        self.free_quota[charge.input_port] += to_quota
        self.free_shared += to_shared
        self._used_chunks -= chunks
        self.chunks_returned += chunks
        if self._used_chunks < 0 or (
            self.free_quota[charge.input_port] > self.quota_chunks
        ):
            raise BufferError_("central buffer accounting corrupted")
        self.occupancy.update(now, self._used_chunks)

    # ------------------------------------------------------------------
    # the timeline (committed write and read runs)
    # ------------------------------------------------------------------
    def take(self, charge: "ChunkCharge", date: int) -> None:
        """Apply the one-chunk take of ``charge`` dated ``date``: shared
        region first, else its input's quota, which covers it."""
        if self.free_shared:
            self.free_shared -= 1
            charge.shared += 1
        elif self.free_quota[charge.input_port]:
            self.free_quota[charge.input_port] -= 1
            charge.quota += 1
        else:
            raise BufferError_("dated chunk take refused: quota not covered")
        self._used_chunks += 1
        self.occupancy.update(date, self._used_chunks)

    def at(self, now: int) -> "CentralBufferPool":
        """The pool as of the end of cycle ``now`` (this cycle or a later
        one) on the one-flit-per-cycle timeline: this pool, or while
        effects dated up to ``now`` are queued a copy that settles them
        on copies of their charges.  The reader behind ``idle()``, the
        occupancy gauge and probe, and the tests."""
        due = self.dated.pool_part(now)
        if not (due.takes or due.releases):
            return self
        view = copy(self)
        view.free_quota = list(self.free_quota)
        view.occupancy = copy(self.occupancy)
        view.dated = due
        due.settle(now + 1, view, None)
        return view

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def free_chunks(self) -> int:
        """Unallocated chunks (shared region plus all quotas)."""
        return self.free_shared + sum(self.free_quota)

    @property
    def used_chunks(self) -> int:
        """Chunks currently held by stored packets (a chunk whose release
        is queued is held until its date; see :meth:`at`)."""
        return self._used_chunks

    def __repr__(self) -> str:
        return (
            f"CentralBufferPool(used={self.used_chunks}/"
            f"{self.capacity_chunks} chunks, shared_free={self.free_shared})"
        )


class ChunkCharge:
    """How many of a packet's chunks came from where."""

    __slots__ = ("input_port", "shared", "quota")

    def __init__(self, input_port: int, shared: int, quota: int) -> None:
        self.input_port = input_port
        self.shared = shared
        self.quota = quota

    @property
    def total(self) -> int:
        """Chunks still held by this charge."""
        return self.shared + self.quota

    def absorb(self, other: "ChunkCharge") -> None:
        """Merge another charge for the same input into this one."""
        if other.input_port != self.input_port:
            raise BufferError_("cannot merge charges across inputs")
        self.shared += other.shared
        self.quota += other.quota

    def __repr__(self) -> str:
        return (
            f"ChunkCharge(in={self.input_port}, shared={self.shared}, "
            f"quota={self.quota})"
        )


class BranchCursor:
    """One output branch's read position into a stored packet."""

    __slots__ = ("worm", "out_port", "read", "stored", "__weakref__")

    def __init__(
        self, worm: Worm, out_port: int, stored: "StoredPacket"
    ) -> None:
        self.worm = worm
        self.out_port = out_port
        #: flits sent, a committed read run counted whole (the branch's
        #: out-link holds the run's send slots until its last member)
        self.read = 0
        #: the packet this branch reads (which does not point back: it
        #: counts its branches, so the pair is freed by reference count)
        self.stored = stored

    def __repr__(self) -> str:
        return f"BranchCursor(port={self.out_port}, read={self.read})"


class StoredPacket:
    """A packet resident in the central buffer, shared by its branches.

    Created with ``reserve_all=True`` for multidestination worms (the
    admission rule: all chunks are taken up front via :meth:`try_admit`)
    and ``reserve_all=False`` for unicast packets, which allocate chunk by
    chunk as flits are written — each take at its own cycle, dated ahead
    by a write run once the packet is covered (:meth:`cover`).
    """

    def __init__(
        self,
        pool: CentralBufferPool,
        input_port: int,
        total_flits: int,
        reserve_all: bool,
    ) -> None:
        self.pool = pool
        self.input_port = input_port
        self.total_flits = total_flits
        self.reserve_all = reserve_all
        self.charge: Optional[ChunkCharge] = None
        #: flits written, a committed write run counted whole
        self.flits_written = 0
        #: cycle of the last write of the latest committed write run;
        #: while it is ahead, `written_by` is behind `flits_written`
        self.last_write = -1
        #: chunks ever taken from the pool, released ones included, and
        #: dated takes counted when their run is committed
        self.chunks_taken = 0
        #: an incremental packet whose input quota covers the rest of it
        #: (:meth:`cover`): its write runs cross chunk boundaries
        self.covered = False
        self._branches = 0
        #: chunks released or queued for release, in chunk order
        self._chunks_released = 0
        #: per chunk of a replicated packet, the branches still to cross
        #: its end and the latest crossing cycle so far (the refcount)
        self._to_cross: List[int] = []
        self._crossed_at: List[int] = []

    # ------------------------------------------------------------------
    # admission (multidestination)
    # ------------------------------------------------------------------
    def try_admit(self, now: int) -> bool:
        """Attempt the full-packet reservation; retried each cycle.

        The per-input quota makes eventual success certain: only earlier
        packets from the same input can hold quota chunks, and they drain.
        """
        if not self.reserve_all:
            raise BufferError_("try_admit on an incrementally stored packet")
        if self.charge is not None:
            return True
        needed = self.pool.chunks_for(self.total_flits)
        self.charge = self.pool.try_take(self.input_port, needed, now)
        if self.charge is None:
            return False
        self.chunks_taken = needed
        return True

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def ensure_write_space(self, now: int) -> bool:
        """True when the next flit has a chunk to land in.

        Admitted packets always have space; incremental packets grab one
        more chunk at each chunk boundary and report ``False`` (stalling
        the input) when the pool refuses.
        """
        if self.flits_written >= self.total_flits:
            raise BufferError_("write past end of stored packet")
        if self.reserve_all:
            if self.charge is None:
                raise BufferError_("write before admission")
            return True
        if self.flits_written < self.chunks_taken * self.pool.chunk_flits:
            return True
        taken = self.pool.try_take(self.input_port, 1, now)
        if taken is None:
            return False
        self.chunks_taken += 1
        if self.charge is None:
            self.charge = taken
        else:
            self.charge.absorb(taken)
        return True

    def cover(self) -> bool:
        """At the first write of an incremental packet, its first chunk
        taken: whether this input's free quota holds every chunk the
        rest of the packet needs.  Only this packet draws on that quota
        until it is written, so then none of its takes can be refused,
        and its write runs may date them (:meth:`write_space`)."""
        pool = self.pool
        self.covered = pool.free_quota[self.input_port] >= (
            pool.chunks_for(self.total_flits) - self.chunks_taken
        )
        return self.covered

    def owned_space(self) -> int:
        """Flits that can be written into the chunks this packet already
        holds or has dated — no allocation, so nothing that could be
        refused: the whole remainder of an admitted packet, the rest of
        the current chunk of an incremental one."""
        return self.chunks_taken * self.pool.chunk_flits - self.flits_written

    def write_space(self, now: int) -> int:
        """Flits a write run from ``now`` may commit: the owned space,
        or for a covered packet the rest of it, short of the first chunk
        boundary whose cycle another input's dated take holds (see "The
        timeline" above for why that take's cycle cannot be shared)."""
        if not self.covered:
            return self.owned_space()
        written, chunk = self.flits_written, self.pool.chunk_flits
        held = self.pool.dated.take_dates
        ahead = chunk - written % chunk  # to the next chunk boundary
        while held and written + ahead < self.total_flits:
            if now + ahead in held:
                return ahead
            ahead += chunk
        return self.total_flits - written

    def write_flit(self) -> None:
        """Commit one flit into the buffer (space must be ensured first)."""
        self.flits_written += 1

    def write_run(self, now: int, count: int) -> None:
        """Commit ``count`` flits of :meth:`write_space`, one per cycle
        from ``now``, dating a take for each chunk they open."""
        written = self.flits_written
        chunk = self.pool.chunk_flits
        while self.chunks_taken * chunk < written + count:
            assert self.charge is not None  # the first chunk is taken
            date = now + self.chunks_taken * chunk - written
            self.pool.dated.add(date, TAKE, self.charge, 1)
            self.chunks_taken += 1
        self.flits_written = written + count
        self.last_write = now + count - 1

    def written_by(self, now: int) -> int:
        """Flits written once the write phase of cycle ``now`` — the
        current cycle or a later one — is done."""
        ahead = self.last_write - now
        return self.flits_written - ahead if ahead > 0 else self.flits_written

    @property
    def fully_written(self) -> bool:
        """True once the tail flit has been stored."""
        return self.flits_written == self.total_flits

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def add_branch(self, worm: Worm, out_port: int) -> BranchCursor:
        """Register a replicated branch; all branches are added at
        admission, before any read."""
        self._branches += 1
        return BranchCursor(worm, out_port, self)

    def readable(self, cursor: BranchCursor) -> bool:
        """True when the branch's next flit has already been written."""
        return cursor.read < self.flits_written

    def branch_read(self, cursor: BranchCursor, now: int) -> None:
        """Advance a branch one flit; free the chunk it leaves if it is
        the last branch to."""
        if not self.readable(cursor):
            raise BufferError_("branch read past written flits")
        read = cursor.read = cursor.read + 1
        if read == self.total_flits or not read % self.pool.chunk_flits:
            self.crossed(read, now, now)

    def crossed(self, read: int, date: int, now: int) -> None:
        """A branch's cursor reaches ``read`` — the end of a chunk, or of
        the packet — at cycle ``date``: this cycle, ``now``, or one ahead
        inside a run the branch has committed.  The chunk goes back to
        the pool at the cycle the *last* branch crosses its end."""
        if self._branches > 1:
            index = (read - 1) // self.pool.chunk_flits
            to_cross = self._to_cross
            if not to_cross:
                chunks = self.pool.chunks_for(self.total_flits)
                to_cross = self._to_cross = [self._branches] * chunks
                self._crossed_at = [-1] * chunks
            crossed_at = self._crossed_at
            if date > crossed_at[index]:
                crossed_at[index] = date
            else:
                date = crossed_at[index]
            to_cross[index] -= 1
            if to_cross[index]:
                return
        assert self.charge is not None
        self._chunks_released += 1
        if date > now:
            self.pool.dated.add(date, RELEASE, self.charge, 1)
        else:
            self.pool.give_back(self.charge, 1, now)

    @property
    def chunks_held(self) -> int:
        """Chunks this packet currently occupies."""
        return 0 if self.charge is None else self.charge.total

    @property
    def finished(self) -> bool:
        """True when every branch has drained the whole packet."""
        return (
            self.fully_written
            and self._chunks_released == self.chunks_taken
        )

    def __repr__(self) -> str:
        return (
            f"StoredPacket(written={self.flits_written}/{self.total_flits}, "
            f"branches={self._branches}, chunks={self.chunks_held})"
        )
