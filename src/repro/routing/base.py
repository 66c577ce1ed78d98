"""Routing primitives shared by every switch architecture.

The paper separates three concerns that this module keeps separate too:

* *where* a worm may travel (up toward the LCA, then down — encoded in
  :class:`MulticastRoutingMode`),
* *which* output ports a worm requests at a switch (computed by
  :class:`~repro.routing.table.SwitchRoutingTable` from per-port
  reachability registers), and
* *how* the switch picks among equivalent up-ports
  (:class:`UpPortPolicy`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Sequence, Union

from repro.flits.destset import DestinationSet
from repro.flits.worm import Worm


class MulticastRoutingMode(enum.Enum):
    """How a multidestination worm covers a bidirectional MIN (paper §3).

    TURNAROUND
        Travel up to the LCA stage of source and destinations without
        replicating, then cover all destinations by replicating on the
        way down (the scheme of ref [27]).
    BRANCH_ON_UP
        Replicate downward to already-reachable destinations while still
        ascending; the up-going branch carries only the destinations
        outside the current subtree.
    """

    TURNAROUND = "turnaround"
    BRANCH_ON_UP = "branch_on_up"


class UpPortPolicy(enum.Enum):
    """How a switch picks one of its equivalent up-ports."""

    #: hash of (source, lowest destination): stable per flow
    DETERMINISTIC = "deterministic"
    #: uniformly random per worm, from the switch's RNG stream
    RANDOM = "random"
    #: the up-port with the most send credits at request time
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class PortRequest:
    """One output port a worm asks for, with the branch's rewritten header.

    ``descending`` records whether the branch is past its turn toward the
    leaves; downstream switches use it to forbid re-ascending.
    """

    port: int
    destinations: DestinationSet
    descending: bool


UpSelector = Callable[[Sequence[int], Worm], int]
"""Picks one up-port for a worm from a non-empty candidate list."""


def make_up_selector(
    policy: UpPortPolicy,
    rng: Union[Random, Callable[[], Random], None] = None,
    credit_view: Optional[Callable[[int], int]] = None,
) -> UpSelector:
    """Build an up-port selector implementing ``policy``.

    Parameters
    ----------
    policy:
        Selection policy.
    rng:
        Required for :attr:`UpPortPolicy.RANDOM`: the generator to draw
        from, or a zero-argument callable that makes it.  The callable
        runs at the selector's first draw, so a selector that is never
        asked to choose — a switch without up-ports — costs no generator.
    credit_view:
        ``port -> available send credits``; required for
        :attr:`UpPortPolicy.ADAPTIVE`.
    """
    if policy is UpPortPolicy.DETERMINISTIC:

        def deterministic(candidates: Sequence[int], worm: Worm) -> int:
            key = worm.source * 1_000_003 + worm.destinations.lowest()
            return candidates[key % len(candidates)]

        return deterministic

    if policy is UpPortPolicy.RANDOM:
        if rng is None:
            raise ValueError("RANDOM up-port policy needs an rng")

        stream = rng if isinstance(rng, Random) else None

        def random_choice(candidates: Sequence[int], worm: Worm) -> int:
            nonlocal stream
            if stream is None:
                stream = rng()  # type: ignore[operator]
            return candidates[stream.randrange(len(candidates))]

        return random_choice

    if policy is UpPortPolicy.ADAPTIVE:
        if credit_view is None:
            raise ValueError("ADAPTIVE up-port policy needs a credit view")

        def adaptive(candidates: Sequence[int], worm: Worm) -> int:
            return max(candidates, key=lambda port: (credit_view(port), -port))

        return adaptive

    raise ValueError(f"unknown up-port policy {policy!r}")


def validate_partition(
    incoming: DestinationSet, requests: List[PortRequest]
) -> None:
    """Assert the paper's replication invariant.

    The rewritten headers of a worm's branches must be pairwise disjoint
    and union to exactly the incoming destination set — otherwise some
    host would receive duplicates or nothing.  Raises ``ValueError`` on
    violation; switches call this under their self-check flag.
    """
    union = 0
    for request in requests:
        if not request.destinations:
            raise ValueError(f"empty branch on port {request.port}")
        if union & request.destinations.mask:
            raise ValueError("branch destination sets overlap")
        union |= request.destinations.mask
    if union != incoming.mask:
        raise ValueError(
            f"branches cover {union:#x}, expected {incoming.mask:#x}"
        )
