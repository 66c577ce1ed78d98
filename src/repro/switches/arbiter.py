"""Round-robin arbitration.

Switch resources that several requesters share — output ports, central
buffer read/write bandwidth, chunk reservations — are granted round-robin
so no input can starve another, matching the fairness assumption of the
paper's switch designs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class RoundRobinArbiter:
    """Grants one requester per call, rotating priority past each winner."""

    def __init__(self, num_requesters: int) -> None:
        if num_requesters < 1:
            raise ValueError("need at least one requester")
        self.num_requesters = num_requesters
        self._next = 0

    def grant(self, requesters: Iterable[int]) -> Optional[int]:
        """Pick the requesting index closest at-or-after the pointer.

        ``requesters`` is the set of indices requesting this cycle.
        Returns ``None`` when nobody requests.  The pointer advances one
        past the winner, so a persistent requester cannot lock the
        resource against others.
        """
        candidates = set(requesters)
        if not candidates:
            return None
        if len(candidates) == 1:
            (index,) = candidates  # deterministic: a one-element set
            self._next = (index + 1) % self.num_requesters
            return index
        for offset in range(self.num_requesters):
            index = (self._next + offset) % self.num_requesters
            if index in candidates:
                self._next = (index + 1) % self.num_requesters
                return index
        return None

    def grant_up_to(self, requesters: Iterable[int], limit: int) -> List[int]:
        """Grant as many distinct requesters as ``limit`` allows, fairly.

        Used for multi-port resources such as central-buffer bandwidth:
        each granted requester gets one unit this cycle.
        """
        if limit < 0:
            raise ValueError("limit must be non-negative")
        candidates = set(requesters)
        granted: List[int] = []
        while candidates and len(granted) < limit:
            winner = self.grant(candidates)
            if winner is None:
                break
            candidates.discard(winner)
            granted.append(winner)
        return granted

    def grant_batch(self, requesters: List[int], limit: int) -> List[int]:
        """Identical grants to :meth:`grant_up_to` in one rotation.

        ``requesters`` must be distinct indices in ascending order (the
        per-cycle candidate scans produce exactly that).  Repeated
        :meth:`grant` calls each rescan all offsets from the pointer;
        since every grant moves the pointer one past its winner, the
        winners of a whole cycle are simply the first ``limit``
        candidates in pointer-rotated order — computed here with one
        list split instead of ``limit`` modulo scans.  Winners, order,
        and the final pointer position match :meth:`grant_up_to` exactly
        (property-tested in ``tests/switches/test_arbiter.py``).
        """
        if limit < 0:
            raise ValueError("limit must be non-negative")
        if not requesters:
            return []
        start = self._next
        if len(requesters) == 1:
            winners = requesters if limit else []
        else:
            pivot = 0
            for position, value in enumerate(requesters):
                if value >= start:
                    pivot = position
                    break
            winners = (requesters[pivot:] + requesters[:pivot])[:limit]
        if winners:
            self._next = (winners[-1] + 1) % self.num_requesters
        return winners

