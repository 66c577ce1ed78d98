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
has read past it (reference-counted sharing, as in the paper's design).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import BufferError_, ConfigurationError
from repro.flits.worm import Worm
from repro.sim.stats import TimeWeightedAverage


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
    """

    def __init__(
        self,
        capacity_flits: int,
        chunk_flits: int,
        num_inputs: int,
        quota_chunks: int,
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
        if chunks == 0:
            return
        if chunks > charge.shared + charge.quota:
            raise BufferError_("central buffer chunk over-release")
        to_quota = min(chunks, charge.quota)
        to_shared = chunks - to_quota
        charge.quota -= to_quota
        charge.shared -= to_shared
        self.free_quota[charge.input_port] += to_quota
        self.free_shared += to_shared
        self._used_chunks -= chunks
        if self._used_chunks < 0 or (
            self.free_quota[charge.input_port] > self.quota_chunks
        ):
            raise BufferError_("central buffer accounting corrupted")
        self.occupancy.update(now, self._used_chunks)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def free_chunks(self) -> int:
        """Unallocated chunks (shared region plus all quotas)."""
        return self.free_shared + sum(self.free_quota)

    @property
    def used_chunks(self) -> int:
        """Chunks currently held by stored packets."""
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

    __slots__ = ("worm", "out_port", "read", "stored")

    def __init__(
        self, worm: Worm, out_port: int, stored: "StoredPacket"
    ) -> None:
        self.worm = worm
        self.out_port = out_port
        self.read = 0
        #: the packet this branch reads
        self.stored = stored

    def __repr__(self) -> str:
        return f"BranchCursor(port={self.out_port}, read={self.read})"


class StoredPacket:
    """A packet resident in the central buffer, shared by its branches.

    Created with ``reserve_all=True`` for multidestination worms (the
    admission rule: all chunks are taken up front via :meth:`try_admit`)
    and ``reserve_all=False`` for unicast packets, which allocate chunk by
    chunk as flits are written.
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
        self.flits_written = 0
        self.branches: List[BranchCursor] = []
        self._chunks_released = 0

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
        return self.charge is not None

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
        needed = self.flits_written // self.pool.chunk_flits + 1
        live = (0 if self.charge is None else self.charge.total)
        live += self._chunks_released
        if needed <= live:
            return True
        taken = self.pool.try_take(self.input_port, 1, now)
        if taken is None:
            return False
        if self.charge is None:
            self.charge = taken
        else:
            self.charge.absorb(taken)
        return True

    def write_flit(self) -> None:
        """Commit one flit into the buffer (space must be ensured first)."""
        self.flits_written += 1

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
        cursor = BranchCursor(worm, out_port, self)
        self.branches.append(cursor)
        return cursor

    def readable(self, cursor: BranchCursor) -> bool:
        """True when the branch's next flit has already been written."""
        return cursor.read < self.flits_written

    def branch_read(self, cursor: BranchCursor, now: int) -> None:
        """Advance a branch one flit; free chunks the slowest branch passed."""
        if not self.readable(cursor):
            raise BufferError_("branch read past written flits")
        cursor.read += 1
        self._release_consumed(now)

    def _release_consumed(self, now: int) -> None:
        if self.charge is None:
            return
        branches = self.branches
        if len(branches) == 1:  # unicast: no generator over one cursor
            min_read = branches[0].read
        else:
            min_read = min(cursor.read for cursor in branches)
        if min_read >= self.total_flits and self.fully_written:
            target = self.charge.total + self._chunks_released
            # the last branch is done: drop the cursors, which point back
            # here — a cycle that only the garbage collector would free
            self.branches = []
        else:
            target = min_read // self.pool.chunk_flits
        to_release = target - self._chunks_released
        if to_release > 0:
            self.pool.give_back(self.charge, to_release, now)
            self._chunks_released += to_release

    @property
    def chunks_held(self) -> int:
        """Chunks this packet currently occupies."""
        return 0 if self.charge is None else self.charge.total

    @property
    def finished(self) -> bool:
        """True when every branch has drained the whole packet."""
        return self.fully_written and all(
            cursor.read == self.total_flits for cursor in self.branches
        )

    def __repr__(self) -> str:
        return (
            f"StoredPacket(written={self.flits_written}/{self.total_flits}, "
            f"branches={len(self.branches)}, chunks={self.chunks_held})"
        )
