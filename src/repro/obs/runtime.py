"""Process-global observability options for experiment runs.

Experiment grids execute their simulations inside module-level worker
functions, often in pool processes, so instrumentation cannot be
threaded through every experiment signature.  Instead the CLI (or a
test) *configures* observability once in the parent process;
:func:`repro.network.simulation.run_simulation` consults
:func:`configured` and, when options are active, routes through the
instrumented harness.  A pool worker does not rely on what it was
started with: the default executor (:mod:`repro.experiments.parallel`)
keeps its pool across plans, so each job carries the options that were
:func:`configured` when its plan was submitted, and the worker applies
them for the duration of the spec and then restores its own.  That holds
whatever the start method; the serial path reads this process's options
directly.

Nothing is configured by default, so the ordinary
build-and-run path is untouched — same objects, same RNG draws, same
golden outputs.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

#: sampling period used when sampling is implied (e.g. ``--metrics-out``
#: without ``--sample-every``)
DEFAULT_SAMPLE_EVERY = 200


@dataclass(frozen=True)
class ObsOptions:
    """What to record and where."""

    #: JSONL file for run headers and sampled metrics (append mode)
    metrics_out: Optional[str] = None
    #: JSONL file for streamed trace events (append mode)
    trace_out: Optional[str] = None
    #: gauge sampling period in cycles; 0 means DEFAULT_SAMPLE_EVERY
    sample_every: int = 0
    #: JSONL file for profiling digests (``repro.profile/1`` sections
    #: plus ``repro.lifecycle/1`` worm records, append mode); also
    #: attaches the kernel/span profilers to every run
    profile_out: Optional[str] = None

    @property
    def effective_sample_every(self) -> int:
        """The sampling period actually used."""
        return self.sample_every if self.sample_every > 0 else (
            DEFAULT_SAMPLE_EVERY
        )


_configured: Optional[ObsOptions] = None
_run_sequence = itertools.count(1)


def configure(options: Optional[ObsOptions]) -> None:
    """Install (or, with ``None``, clear) the process-wide options."""
    global _configured
    _configured = options


def configured() -> Optional[ObsOptions]:
    """The active options, or ``None`` when observability is off."""
    return _configured


def reset() -> None:
    """Clear the configuration (tests and CLI teardown)."""
    configure(None)


def next_run_id() -> str:
    """A process-unique run tag for JSONL lines.

    Includes the PID so runs from different pool workers appending to
    one shared file never collide.
    """
    return f"{os.getpid()}-{next(_run_sequence)}"


@contextmanager
def enabled(**kwargs: object) -> Iterator[ObsOptions]:
    """Scoped configuration for tests::

        with runtime.enabled(metrics_out="m.jsonl", sample_every=50):
            run_simulation(config, workload)
    """
    options = ObsOptions(**kwargs)  # type: ignore[arg-type]
    previous = configured()
    configure(options)
    try:
        yield options
    finally:
        configure(previous)
