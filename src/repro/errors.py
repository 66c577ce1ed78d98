"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the simulator derive from :class:`ReproError` so that
callers can catch simulator problems without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro simulator."""


class ConfigurationError(ReproError):
    """A simulation or component was configured with invalid parameters."""


class TopologyError(ReproError):
    """A topology could not be constructed or is malformed."""


class RoutingError(ReproError):
    """A route could not be computed, or a header could not be decoded."""


class ProtocolError(ReproError):
    """A component observed a violation of the link or switch protocol.

    Protocol errors indicate bugs in the simulator itself (for example a
    flit arriving without credit, or a body flit with no preceding head)
    rather than invalid user input; they are raised eagerly so that such
    bugs cannot silently corrupt simulation statistics.
    """


class BufferError_(ReproError):
    """A buffer invariant was violated (overflow, double free, leak)."""


class SimulationError(ReproError):
    """The simulation reached an invalid state (e.g. suspected deadlock)."""


class DeadlockSuspected(SimulationError):
    """No component made progress for a configured number of cycles.

    A correctly configured network built by this package is deadlock-free;
    this error exists so that experiments with deliberately broken
    parameters (for example central buffers smaller than a packet, used in
    tests of the acceptance rule) fail loudly instead of spinning forever.
    """


class CycleBudgetExhausted(SimulationError):
    """``run_until`` spent its ``max_cycles`` with the predicate still
    false.  Unlike every other :class:`SimulationError` this is not a
    fault: a saturated open-loop run simply does not finish in time."""
