"""The process-wide result-store session.

Mirrors :mod:`repro.obs.runtime`: CLI entry points call
:func:`configure` once (from ``--store-dir``/``--no-store``/
``--store-refresh`` flags or the ``REPRO_STORE_DIR`` environment
variable) inside a ``try``/``finally`` that ends with :func:`reset`,
and :func:`repro.experiments.parallel.run_outcomes` consults
:func:`active_session` whenever no explicit ``store`` argument was
passed.  Experiments themselves never know whether a store is active —
memoization happens in the parent process, before specs reach an
executor, so worker code is untouched.

Only the entry points read the environment; library code sees a
:class:`StoreSession` or nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.parallel import RunOutcome
from repro.store.backend import JournalStore

#: environment variable naming the store directory for CLI entry points
ENV_STORE_DIR = "REPRO_STORE_DIR"


class StoreSession:
    """One configured store plus the session's refresh policy.

    The session also tallies what the store did across every plan it
    executed (hits, coalesced duplicates, executed runs, execution
    seconds avoided), so artifact writers — ``benchmarks/_benchlib``,
    the bench runner — can embed a store section without threading
    progress callbacks through every experiment.
    """

    def __init__(self, store: Any, refresh: bool = False) -> None:
        self.store = store
        self.refresh = refresh
        self.hits = 0
        self.coalesced = 0
        self.executed = 0
        self.saved_seconds = 0.0

    def record(self, outcomes: List[RunOutcome]) -> None:
        """Fold a plan's outcomes into the session tallies.

        ``run_outcomes`` calls this once per plan it ran against this
        session's store, whichever executor ran the leaders.
        """
        for outcome in outcomes:
            if outcome.source == "hit":
                self.hits += 1
            elif outcome.source == "coalesced":
                self.coalesced += 1
            else:
                self.executed += 1
            self.saved_seconds += outcome.saved_seconds

    def stats(self) -> Dict[str, Any]:
        """Store stats plus this session's hit/coalesce tallies."""
        stats = dict(self.store.stats())
        stats.update(
            hits=self.hits,
            coalesced=self.coalesced,
            executed=self.executed,
            saved_seconds=round(self.saved_seconds, 3),
        )
        return stats

    def close(self) -> None:
        """Close the underlying store (idempotent)."""
        self.store.close()


_active: Optional[StoreSession] = None


def configure(session: Optional[StoreSession]) -> None:
    """Install (or, with ``None``, clear) the process-wide session."""
    global _active
    _active = session


def active_session() -> Optional[StoreSession]:
    """The active session, or ``None`` when the store is off."""
    return _active


def reset() -> None:
    """Close and clear the session (CLI teardown and tests)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def open_session(
    directory: Path, refresh: bool = False
) -> StoreSession:
    """A journal-backed session rooted at ``directory``."""
    return StoreSession(JournalStore(Path(directory)), refresh=refresh)


def store_dir_from_env() -> Optional[Path]:
    """The ``REPRO_STORE_DIR`` directory, or ``None`` when unset.

    Entry points (and only entry points — see module docs) call this
    to honour the environment when no ``--store-dir`` flag was given.
    """
    raw = os.environ.get(ENV_STORE_DIR, "").strip()
    return Path(raw) if raw else None
