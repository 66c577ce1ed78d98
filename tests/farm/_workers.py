"""Module-level worker functions for the farm test suite.

Fleet workers unpickle specs by *reference* (``module:qualname``), so
anything a test dispatches must live in an importable module — not in
the test file's locals and not under a script's ``__main__``.  Keeping
them here also keeps their content addresses identical between the
campaign that journals a result and the later campaign that resumes
from it (the same reason ``tests/store/_crash_worker.py`` exists).
"""

from __future__ import annotations

import time


def square(x=0):
    """Deterministic, instant, store-codable."""
    return {"x": x, "squared": x * x}


def slow_square(x=0, seconds=0.0):
    """Like :func:`square` with a controllable wall time, so kills and
    steals land mid-campaign instead of racing a finished plan."""
    if seconds:
        time.sleep(seconds)
    return {"x": x, "squared": x * x}


class Detonation(RuntimeError):
    """A picklable error type that survives the trip back to the parent."""


def boom(x=0):
    """Always raises — the worker-error propagation path."""
    raise Detonation(f"worker exploded on {x}")


def die_once(x=0, marker=""):
    """SIGKILL the worker process the first time ``marker`` is absent
    (creating it), then behave like :func:`square` — a worker lost
    mid-job whose rerun succeeds."""
    import os
    import signal

    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return square(x)
