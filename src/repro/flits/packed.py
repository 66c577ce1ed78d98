"""Packed flit representation: the allocation-free data plane.

One :class:`~repro.flits.flit.Flit` instance per link per cycle is
allocation churn that dominates a saturated run (see
``docs/performance.md``), so the data plane moves flit *coordinates*,
not flit objects:

* a flit is ``(worm, index)``; a contiguous run of flits of one worm is
  a *span* ``(worm, start, count)`` whose members arrive on consecutive
  cycles — the unit links, switches and NIs move per wake;
* in-flight spans are stored as ints in a preallocated array-of-struct
  ring (:class:`SpanQueue`): three ints per record ``(arrival, start,
  count)`` plus a parallel worm-reference table, so pushing, merging and
  taking spans are integer slice operations with no per-flit objects.

The production switches and NI never construct ``Flit`` objects (their
modules do not import the class; only :mod:`repro.reference`, the
per-flit plane the differential suites compare against, does).
:func:`flit_repr` gives them trace strings byte-identical to the
reference's ``repr(flit)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.flits.worm import Worm


def flit_repr(worm: Worm, index: int) -> str:
    """``repr`` of flit ``(worm, index)`` without materialising it.

    Byte-identical to :meth:`repro.flits.flit.Flit.__repr__`, so packed
    trace events compare equal to object-path trace events.
    """
    if index == 0:
        kind = "H"
    elif index == worm.size_flits - 1:
        kind = "T"
    else:
        kind = "B"
    return f"Flit({worm.packet.packet_id}:{index}{kind})"


class SpanQueue:
    """Preallocated array-of-struct ring of in-flight flit spans.

    One record is three ints — ``(arrival, start, count)`` — in a flat
    ring buffer plus a parallel worm-reference list: flit ``start + j``
    of the record's worm arrives at cycle ``arrival + j``.  Pushes merge
    into the newest record when worm, index and arrival are contiguous,
    so a steady sender occupies a single record regardless of length.
    A record is scheduled ahead of time — every member's landing cycle
    is known at the first one — so a receiver has two ways to pop the
    oldest: :meth:`take_record` hands the *whole* record over once its
    head has landed (the switches: an arrival is a record, and
    :attr:`landing` dates the members handed over ahead of their cycle),
    :meth:`take` only the prefix that has landed (a receiver that acts
    on each flit the cycle it lands: the per-flit reference drain).  No
    per-flit object is ever allocated.
    """

    __slots__ = (
        "_cap", "_mask", "_arr", "_worms", "_head", "_tail", "_flits",
        "landing",
    )

    def __init__(self, capacity: int = 8) -> None:
        cap = 1
        while cap < capacity:
            cap <<= 1
        self._cap = cap
        self._mask = cap - 1
        self._arr = [0] * (3 * cap)
        self._worms: List[Optional[Worm]] = [None] * cap
        #: absolute record counters; slot = counter & mask
        self._head = 0
        self._tail = 0
        self._flits = 0
        #: landing cycle of the newest member :meth:`take_record` ever
        #: handed over.  Records land in order, one flit a cycle, and a
        #: record is handed over only once its head has landed, so
        #: everything handed over before it has landed by then: the
        #: members still flying at ``now`` are exactly the last
        #: ``landing - now`` of the newest record (see :meth:`flying`)
        self.landing = -1

    def __len__(self) -> int:
        """Total flits queued (not records)."""
        return self._flits

    @property
    def records(self) -> int:
        """Occupied records (distinct unmerged spans)."""
        return self._tail - self._head

    def push_span(self, arrival: int, worm: Worm, start: int, count: int) -> None:
        """Queue ``count`` flits of ``worm`` from ``start``, arriving on
        consecutive cycles beginning at ``arrival``."""
        if count < 1:
            raise ValueError("span count must be positive")
        arr = self._arr
        if self._tail != self._head:
            slot = (self._tail - 1) & self._mask
            base = 3 * slot
            if (
                self._worms[slot] is worm
                and arr[base + 1] + arr[base + 2] == start
                and arr[base] + arr[base + 2] == arrival
            ):
                arr[base + 2] += count
                self._flits += count
                return
        if self._tail - self._head == self._cap:
            self._grow()
            arr = self._arr
        slot = self._tail & self._mask
        base = 3 * slot
        arr[base] = arrival
        arr[base + 1] = start
        arr[base + 2] = count
        self._worms[slot] = worm
        self._tail += 1
        self._flits += count

    def push(self, arrival: int, worm: Worm, index: int) -> None:
        """Queue a single flit (merged into the newest span if contiguous)."""
        self.push_span(arrival, worm, index, 1)

    def has_arrived(self, now: int) -> bool:
        """True when :meth:`take` would return a span at cycle ``now``."""
        return (
            self._head != self._tail
            and self._arr[3 * (self._head & self._mask)] <= now
        )

    def head(self) -> Optional[Tuple[int, Worm, int, int]]:
        """The oldest record as ``(arrival, worm, start, count)``, left
        queued — what a receiver may look ahead at without taking it."""
        if self._head == self._tail:
            return None
        slot = self._head & self._mask
        base = 3 * slot
        arr = self._arr
        worm = self._worms[slot]
        assert worm is not None
        return arr[base], worm, arr[base + 1], arr[base + 2]

    def head_arrival(self) -> int:
        """Landing cycle of the oldest queued flit; the queue must not
        be empty.  A receiver reads it before :meth:`take` to date what
        it accepts by when it landed, not by when it looked."""
        return self._arr[3 * (self._head & self._mask)]

    def arrived(self, now: int) -> int:
        """Flits that have landed by ``now`` and were not taken yet."""
        arr = self._arr
        landed = 0
        for record in range(self._head, self._tail):
            base = 3 * (record & self._mask)
            due = now - arr[base] + 1
            if due <= 0:
                break  # records are in arrival order
            landed += min(due, arr[base + 2])
        return landed

    def flying(self, now: int) -> int:
        """Flits that have not landed by the end of cycle ``now`` (the
        current cycle or a later one), whether still queued or handed
        over ahead of their cycle by :meth:`take_record` — what the
        one-flit-per-cycle timeline has on the wire."""
        ahead = self.landing - now
        flying = self._flits - self.arrived(now)
        return flying + ahead if ahead > 0 else flying

    def take_record(
        self, now: int, limit: Optional[int] = None
    ) -> Optional[Tuple[Worm, int, int]]:
        """Pop the oldest record whole, once its head has landed.

        Returns ``(worm, start, count)`` — member ``j`` lands at
        ``landing - (count - 1 - j)``, so all but the first may still be
        ahead of ``now`` — or ``None`` while the head is in flight: a
        record is never handed over before its first member is there.
        Capped at ``limit`` flits when given; the rest stays queued, its
        head the next member, under the same rule.
        """
        if self._head == self._tail:
            return None
        slot = self._head & self._mask
        base = 3 * slot
        arr = self._arr
        arrival = arr[base]
        if arrival > now:
            return None
        count = arr[base + 2]
        worm = self._worms[slot]
        assert worm is not None
        start = arr[base + 1]
        if limit is None or limit >= count:
            self._worms[slot] = None
            self._head += 1
        elif limit <= 0:
            return None
        else:
            arr[base] = arrival + limit
            arr[base + 1] = start + limit
            arr[base + 2] = count - limit
            count = limit
        self._flits -= count
        self.landing = arrival + count - 1
        return worm, start, count

    def take(
        self, now: int, limit: Optional[int] = None
    ) -> Optional[Tuple[Worm, int, int]]:
        """Pop the longest arrived prefix of the oldest span.

        Returns ``(worm, start, count)`` with every member flit arrived
        by ``now`` (capped at ``limit`` flits when given), or ``None``
        when nothing has arrived.  A partially taken span stays queued
        with its ``arrival``/``start`` advanced in place.
        """
        if self._head == self._tail:
            return None
        slot = self._head & self._mask
        base = 3 * slot
        arr = self._arr
        arrival = arr[base]
        if arrival > now:
            return None
        count = arr[base + 2]
        avail = now - arrival + 1
        if avail > count:
            avail = count
        if limit is not None and avail > limit:
            avail = limit
        if avail <= 0:
            return None
        worm = self._worms[slot]
        assert worm is not None
        start = arr[base + 1]
        if avail == count:
            self._worms[slot] = None
            self._head += 1
        else:
            arr[base] = arrival + avail
            arr[base + 1] = start + avail
            arr[base + 2] = count - avail
        self._flits -= avail
        return worm, start, avail

    def _grow(self) -> None:
        """Double capacity, re-laying surviving records out in order."""
        old_arr, old_worms = self._arr, self._worms
        old_mask, head, tail = self._mask, self._head, self._tail
        cap = self._cap * 2
        arr = [0] * (3 * cap)
        worms: List[Optional[Worm]] = [None] * cap
        position = 0
        for record in range(head, tail):
            old_base = 3 * (record & old_mask)
            base = 3 * position
            arr[base] = old_arr[old_base]
            arr[base + 1] = old_arr[old_base + 1]
            arr[base + 2] = old_arr[old_base + 2]
            worms[position] = old_worms[record & old_mask]
            position += 1
        self._cap = cap
        self._mask = cap - 1
        self._arr = arr
        self._worms = worms
        self._head = 0
        self._tail = position
