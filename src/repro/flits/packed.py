"""Packed flit representation: the allocation-free data plane.

The object data plane moves one :class:`~repro.flits.flit.Flit` instance
per link per cycle.  At saturation that allocation churn dominates the
simulator's run time (see ``docs/performance.md``), so the packed data
plane replaces flit *objects* in the hot path with flit *coordinates*:

* a flit is ``(worm, index)``; a contiguous run of flits of one worm is
  a *span* ``(worm, start, count)`` whose members arrive on consecutive
  cycles — the unit links and packed components move per wake;
* in-flight spans are stored as ints in a preallocated array-of-struct
  ring (:class:`SpanQueue`): three ints per record ``(arrival, start,
  count)`` plus a parallel worm-reference table, so pushing, merging and
  taking spans are integer slice operations with no per-flit objects;
* for the conversion boundary (telemetry, tracing, goldens, the object
  reference path) a single flit packs losslessly into one int *word*
  (:func:`pack_word`) with a :class:`WormTable` interning live worms to
  slot numbers; :meth:`WormTable.decode` materialises the equivalent
  :class:`~repro.flits.flit.Flit` object.

Packed-path modules (``repro.switches.packed_central``,
``repro.switches.packed_input``, ``repro.host.packed_interface``) must
not construct ``Flit`` objects — enforced by reprolint rule REP008.  The
helpers here (:func:`flit_repr`, :func:`span_flits`, ``decode``) are the
sanctioned escape hatch: they live outside the packed modules and keep
every observable (trace strings, delivered worms, metric attribution)
bit-identical to the object path.

Word layout (``WORD_INDEX_BITS`` = 28)::

    word = (slot << 32) | (flags << 28) | index

    bit 63..32  worm slot in the WormTable
    bit 31..28  flags: 1 = head, 2 = tail, 4 = header
    bit 27..0   flit index within the worm
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.flits.flit import Flit
from repro.flits.worm import Worm

#: width of the index field in a packed word
WORD_INDEX_BITS = 28
#: flag bits stored alongside the index
FLAG_HEAD = 1
FLAG_TAIL = 2
FLAG_HEADER = 4

_INDEX_MASK = (1 << WORD_INDEX_BITS) - 1
_FLAG_SHIFT = WORD_INDEX_BITS
_SLOT_SHIFT = WORD_INDEX_BITS + 4
_FLAG_MASK = 0xF


def flit_flags(worm: Worm, index: int) -> int:
    """The flag bits of flit ``index`` of ``worm``."""
    flags = 0
    if index == 0:
        flags |= FLAG_HEAD
    if index == worm.size_flits - 1:
        flags |= FLAG_TAIL
    if index < worm.header_flits:
        flags |= FLAG_HEADER
    return flags


def pack_word(slot: int, index: int, flags: int) -> int:
    """Pack a worm slot, flit index and flag bits into one int."""
    if not 0 <= index <= _INDEX_MASK:
        raise ProtocolError(f"flit index {index} exceeds {WORD_INDEX_BITS} bits")
    if slot < 0:
        raise ProtocolError(f"worm slot {slot} must be non-negative")
    return (slot << _SLOT_SHIFT) | (flags << _FLAG_SHIFT) | index


def unpack_word(word: int) -> Tuple[int, int, int]:
    """Invert :func:`pack_word`: ``(slot, index, flags)``."""
    return (
        word >> _SLOT_SHIFT,
        word & _INDEX_MASK,
        (word >> _FLAG_SHIFT) & _FLAG_MASK,
    )


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


def span_flits(worm: Worm, start: int, count: int) -> Iterator[Flit]:
    """Materialise the :class:`Flit` objects of a span, in order.

    Conversion helper for the object reference path and for telemetry
    that genuinely needs flit objects; never used inside packed modules.
    """
    for index in range(start, start + count):
        yield Flit(worm, index)


class WormTable:
    """Interns live :class:`Worm` objects to dense integer slots.

    The packed word format identifies a worm by slot number; the table
    keeps the mapping bijective while the worm is in flight and recycles
    slots after :meth:`release`, so the slot space stays as dense as the
    number of concurrently live worms.
    """

    def __init__(self) -> None:
        self._worms: List[Optional[Worm]] = []
        self._free: List[int] = []
        self._slots: dict = {}

    def __len__(self) -> int:
        return len(self._slots)

    def intern(self, worm: Worm) -> int:
        """The slot of ``worm``, allocating one on first sight."""
        slot = self._slots.get(id(worm))
        if slot is not None:
            return slot
        if self._free:
            slot = self._free.pop()
            self._worms[slot] = worm
        else:
            slot = len(self._worms)
            self._worms.append(worm)
        self._slots[id(worm)] = slot
        return slot

    def worm(self, slot: int) -> Worm:
        """The worm interned at ``slot``."""
        worm = self._worms[slot] if 0 <= slot < len(self._worms) else None
        if worm is None:
            raise ProtocolError(f"worm slot {slot} is not live")
        return worm

    def release(self, worm: Worm) -> None:
        """Recycle the slot of a worm that left the packed plane."""
        slot = self._slots.pop(id(worm), None)
        if slot is None:
            raise ProtocolError("releasing a worm that was never interned")
        self._worms[slot] = None
        self._free.append(slot)

    def encode(self, worm: Worm, index: int) -> int:
        """Pack flit ``(worm, index)`` into one word."""
        if not 0 <= index < worm.size_flits:
            raise ProtocolError(
                f"flit index {index} outside worm of {worm.size_flits} flits"
            )
        return pack_word(self.intern(worm), index, flit_flags(worm, index))

    def decode(self, word: int) -> Flit:
        """Materialise the :class:`Flit` a word denotes (lossless)."""
        slot, index, _ = unpack_word(word)
        return Flit(self.worm(slot), index)


class SpanQueue:
    """Preallocated array-of-struct ring of in-flight flit spans.

    One record is three ints — ``(arrival, start, count)`` — in a flat
    ring buffer plus a parallel worm-reference list: flit ``start + j``
    of the record's worm arrives at cycle ``arrival + j``.  Pushes merge
    into the newest record when worm, index and arrival are contiguous,
    so a steady sender occupies a single record regardless of length;
    :meth:`take` returns the longest arrived prefix of the oldest record
    and shrinks it in place.  No per-flit object is ever allocated.
    """

    __slots__ = ("_cap", "_mask", "_arr", "_worms", "_head", "_tail", "_flits")

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
