"""Content-addressed result store: memoized experiment execution.

Every experiment run in this suite is a pure function of its
:class:`~repro.experiments.parallel.RunSpec` (the determinism contract
of :mod:`repro.experiments.parallel`), which makes results cacheable by
*content*: hash what would be computed, and identical runs — within a
grid, across experiments, across interrupted campaigns — cost one
simulation.

Layers, bottom up:

:mod:`repro.store.hashing`
    canonical deterministic spec fingerprints and SHA-256 keys;
:mod:`repro.store.codec`
    bit-exact JSON encoding of run values (``RunSummary`` et al.);
:mod:`repro.store.journal`
    the only file-I/O module: append-only JSONL segments with crash
    recovery;
:mod:`repro.store.backend`
    :class:`MemoryStore` for tests, :class:`JournalStore` on disk,
    plus verify/gc/export maintenance;
:mod:`repro.store.memo`
    the memoizing execution layer (hits / coalesced duplicates /
    journaled misses) that ``run_outcomes`` dispatches through;
:mod:`repro.store.runtime`
    the process-wide session configured by CLI flags and
    ``REPRO_STORE_DIR``;
:mod:`repro.store.cli`
    ``python -m repro store`` (stats, verify, gc, export, import).

See ``docs/result-store.md`` for the operational guide.
"""

from repro.store.backend import (
    GcReport,
    JournalStore,
    MemoryStore,
    StoreEntry,
    StoreError,
    VerifyReport,
)
from repro.store.codec import CodecError, decode_value, encode_value
from repro.store.hashing import (
    STORE_SCHEMA_VERSION,
    SpecHashError,
    spec_fingerprint,
    spec_key,
)
from repro.store.memo import memoized_outcomes, partition_plan
from repro.store.runtime import (
    ENV_STORE_DIR,
    StoreSession,
    open_session,
    store_dir_from_env,
)

__all__ = [
    "CodecError",
    "ENV_STORE_DIR",
    "GcReport",
    "JournalStore",
    "MemoryStore",
    "STORE_SCHEMA_VERSION",
    "SpecHashError",
    "StoreEntry",
    "StoreError",
    "StoreSession",
    "VerifyReport",
    "decode_value",
    "encode_value",
    "memoized_outcomes",
    "open_session",
    "partition_plan",
    "spec_fingerprint",
    "spec_key",
    "store_dir_from_env",
]
