"""Collective operations built on the multicast substrate.

The paper closes by pointing at switch-supported **barrier
synchronization** (their follow-up, ref [34]) and other collectives as
the next step for multidestination message passing.  This package
implements those collectives at the host-protocol level, in
:mod:`repro.collectives.barrier`: barrier, all-reduce, gather and
all-gather are one engine, a binomial *fold* of contributions to a root
and an optional *release* from it that is either a single
multidestination worm (the hardware-accelerated variant) or a binomial
software broadcast (the pure-software baseline).  They differ only in
what is folded and how many flits each message carries.

The engine drives real messages through the flit-level network, so
collective latency includes every contention and overhead effect the
rest of the library models.
"""

from repro.collectives.barrier import (
    BinomialTree,
    ReleaseScheme,
    TreeCollective,
    TreeCollectiveEngine,
)

__all__ = [
    "BinomialTree",
    "ReleaseScheme",
    "TreeCollective",
    "TreeCollectiveEngine",
]
