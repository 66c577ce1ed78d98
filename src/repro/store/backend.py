"""Result-store backends: in-memory for tests, journaled for disk.

Both backends speak the same tiny interface — ``get``/``put``/
``stats``/``close`` over :class:`StoreEntry` values — which is all the
memo layer (:mod:`repro.store.memo`) needs.  :class:`JournalStore`
additionally owns the operational surface the ``python -m repro
store`` CLI exposes: :meth:`verify` (full journal re-scan),
:meth:`gc` (compaction by age/size), and :meth:`export`/
:meth:`import_file` (moving results between machines).

On-disk layout (all file traffic via :mod:`repro.store.journal`)::

    <store dir>/segments/seg-00001.jsonl
    <store dir>/segments/seg-00002.jsonl      # one per writer session
    ...

Each segment starts with a ``repro.store.segment/1`` header carrying
the store schema version and a :class:`~repro.obs.manifest.RunManifest`
provenance dict, followed by ``repro.store.entry/1`` records.  The
index is rebuilt from the segments on open — the newest entry for a
key wins, which is also what makes ``--store-refresh`` an append
(newer results shadow stale ones) rather than an in-place mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.manifest import RunManifest, parse_iso, utc_now_iso
from repro.obs.sinks import (
    SCHEMA_STORE_ENTRY,
    SCHEMA_STORE_SEGMENT,
    validate_record,
)
from repro.store import journal
from repro.store.hashing import STORE_SCHEMA_VERSION


class StoreError(ReproError):
    """A result-store operation failed."""


@dataclass(frozen=True)
class StoreEntry:
    """One cached run: its content address, value, and provenance."""

    key: str
    fn: str
    result_version: int
    value: Any  # codec-encoded (see repro.store.codec)
    wall_seconds: float = 0.0
    created_at: str = ""
    git_sha: str = ""

    def to_record(self) -> Dict[str, Any]:
        """The journal line for this entry."""
        return {
            "schema": SCHEMA_STORE_ENTRY,
            "key": self.key,
            "fn": self.fn,
            "result_version": self.result_version,
            "value": self.value,
            "wall_seconds": self.wall_seconds,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "StoreEntry":
        """Rebuild an entry from a journal line (validated upstream)."""
        return cls(
            key=record["key"],
            fn=record["fn"],
            result_version=record["result_version"],
            value=record["value"],
            wall_seconds=float(record.get("wall_seconds", 0.0)),
            created_at=str(record.get("created_at", "")),
            git_sha=str(record.get("git_sha", "")),
        )


class MemoryStore:
    """A dict-backed store for tests and single-process runs."""

    def __init__(self) -> None:
        self._entries: Dict[str, StoreEntry] = {}
        self.puts = 0

    def get(self, key: str) -> Optional[StoreEntry]:
        return self._entries.get(key)

    def put(self, entry: StoreEntry) -> None:
        self._entries[entry.key] = entry
        self.puts += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "backend": "memory",
            "entries": len(self._entries),
            "segments": 0,
            "bytes": 0,
        }

    def close(self) -> None:
        """Nothing to release."""


@dataclass
class VerifyReport:
    """What a full journal re-scan found."""

    entries: int = 0
    segments: int = 0
    bytes: int = 0
    #: crash-recovered torn final lines (expected artifacts, not errors)
    torn_tails: int = 0
    #: entries whose store schema predates the running code
    stale_schema: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the index is clean (torn tails are allowed)."""
        return not self.errors

    def render(self) -> str:
        verdict = "clean" if self.ok else "CORRUPT"
        lines = [
            f"store index {verdict}: {self.entries} live entr"
            f"{'y' if self.entries == 1 else 'ies'} in "
            f"{self.segments} segment(s), {self.bytes} bytes",
        ]
        if self.torn_tails:
            lines.append(
                f"{self.torn_tails} torn tail(s) recovered from "
                "crashed writer sessions"
            )
        if self.stale_schema:
            lines.append(
                f"{self.stale_schema} entr"
                f"{'y' if self.stale_schema == 1 else 'ies'} from an "
                "older store schema (ignored by lookups; gc reclaims "
                "them)"
            )
        lines.extend(f"ERROR: {message}" for message in self.errors)
        return "\n".join(lines)


@dataclass
class GcReport:
    """What one compaction pass kept and dropped."""

    kept: int = 0
    dropped_age: int = 0
    dropped_size: int = 0
    dropped_stale: int = 0
    segments_removed: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    def render(self) -> str:
        dropped = self.dropped_age + self.dropped_size + self.dropped_stale
        return (
            f"gc: kept {self.kept} entr{'y' if self.kept == 1 else 'ies'}, "
            f"dropped {dropped} (age {self.dropped_age}, size "
            f"{self.dropped_size}, stale-schema {self.dropped_stale}), "
            f"compacted {self.segments_removed} segment(s): "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )


class JournalStore:
    """The journaled on-disk backend (see module docs)."""

    def __init__(self, directory: Path, create: bool = True) -> None:
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise StoreError(f"no store at {self.directory}")
        self._writer: Optional[journal.JournalWriter] = None
        self._index: Dict[str, StoreEntry] = {}
        self._session_created_at = ""
        self._session_git_sha = ""
        self._load()

    # ------------------------------------------------------------------
    # the memo-layer interface
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[StoreEntry]:
        """The newest journaled entry for ``key`` (microseconds)."""
        return self._index.get(key)

    def put(self, entry: StoreEntry) -> None:
        """Journal one entry (session provenance stamped here)."""
        writer = self._ensure_writer()
        stamped = StoreEntry(
            key=entry.key,
            fn=entry.fn,
            result_version=entry.result_version,
            value=entry.value,
            wall_seconds=entry.wall_seconds,
            created_at=entry.created_at or self._session_created_at,
            git_sha=entry.git_sha or self._session_git_sha,
        )
        writer.write(stamped.to_record())
        self._index[stamped.key] = stamped

    def stats(self) -> Dict[str, Any]:
        """Index size and on-disk footprint."""
        segments = journal.list_segments(self.directory)
        return {
            "backend": "journal",
            "dir": str(self.directory),
            "entries": len(self._index),
            "segments": len(segments),
            "bytes": sum(path.stat().st_size for path in segments),
        }

    def close(self) -> None:
        """Close the writer session (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "JournalStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # operational surface (python -m repro store ...)
    # ------------------------------------------------------------------
    def verify(self) -> VerifyReport:
        """Re-scan every segment and cross-check the recovery rules."""
        report = VerifyReport()
        live: Dict[str, StoreEntry] = {}
        for scan in journal.scan_store(self.directory):
            report.segments += 1
            report.bytes += scan.bytes
            if scan.torn_tail:
                report.torn_tails += 1
            for line, reason in scan.errors:
                report.errors.append(
                    f"{scan.path.name}:{line}: {reason}"
                )
            segment_schema = STORE_SCHEMA_VERSION
            saw_header = False
            for position, record in enumerate(scan.records):
                problem = validate_record(record)
                if problem is not None:
                    report.errors.append(
                        f"{scan.path.name}: record {position + 1}: "
                        f"{problem}"
                    )
                    continue
                schema = record.get("schema")
                if schema == SCHEMA_STORE_SEGMENT:
                    if position != 0:
                        report.errors.append(
                            f"{scan.path.name}: segment header not "
                            "first in file"
                        )
                    segment_schema = record["store_schema"]
                    saw_header = True
                    continue
                if schema != SCHEMA_STORE_ENTRY:
                    report.errors.append(
                        f"{scan.path.name}: record {position + 1}: "
                        f"unexpected schema {schema!r}"
                    )
                    continue
                if segment_schema != STORE_SCHEMA_VERSION:
                    report.stale_schema += 1
                    continue
                entry = StoreEntry.from_record(record)
                live[entry.key] = entry
            if scan.records and not saw_header:
                report.errors.append(
                    f"{scan.path.name}: missing segment header"
                )
        report.entries = len(live)
        if len(live) != len(self._index):
            report.errors.append(
                f"index drift: scan found {len(live)} live entries, "
                f"open index holds {len(self._index)}"
            )
        return report

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Compact the journal, dropping aged/excess/stale entries.

        Entries are dropped when older than ``max_age_days``, when the
        store would exceed ``max_bytes`` (oldest evicted first), or
        when journaled under an older store schema (their keys can
        never hit again).  Survivors are rewritten into one freshly
        claimed segment before the old segments are removed, so a
        crash mid-gc never loses live data.
        """
        report = GcReport()
        old_segments = journal.list_segments(self.directory)
        report.bytes_before = sum(
            path.stat().st_size for path in old_segments
        )
        survivors: List[Tuple[float, StoreEntry]] = []
        cutoff: Optional[float] = None
        if max_age_days is not None:
            now = parse_iso(utc_now_iso())
            assert now is not None
            cutoff = now - max_age_days * 86400.0
        for entry in self._index.values():
            created = parse_iso(entry.created_at)
            if cutoff is not None and (
                created is None or created < cutoff
            ):
                report.dropped_age += 1
                continue
            survivors.append((created or 0.0, entry))
        # Stale-schema entries never make it into the in-memory index
        # (the loader skips them), so compaction drops them by
        # construction; count them off the raw scan for the report.
        for scan in journal.scan_store(self.directory):
            segment_schema = STORE_SCHEMA_VERSION
            for record in scan.records:
                schema = record.get("schema")
                if schema == SCHEMA_STORE_SEGMENT and isinstance(
                    record.get("store_schema"), int
                ):
                    segment_schema = record["store_schema"]
                elif (
                    schema == SCHEMA_STORE_ENTRY
                    and segment_schema != STORE_SCHEMA_VERSION
                ):
                    report.dropped_stale += 1
        survivors.sort(key=lambda pair: pair[0])
        if max_bytes is not None:
            # evict oldest-first until the newest survivors fit
            kept: List[Tuple[float, StoreEntry]] = []
            total = 0
            for created, entry in reversed(survivors):
                size = len(journal.record_line(entry.to_record()))
                if total + size > max_bytes:
                    report.dropped_size += 1
                    continue
                total += size
                kept.append((created, entry))
            survivors = list(reversed(kept))
        report.kept = len(survivors)
        if dry_run:
            report.bytes_after = report.bytes_before
            return report
        self.close()
        segment = journal.claim_segment(self.directory)
        with journal.JournalWriter(segment) as writer:
            writer.write(self._segment_header())
            for _, entry in survivors:
                writer.write(entry.to_record())
        for path in old_segments:
            journal.remove_segment(path)
            report.segments_removed += 1
        remaining = journal.list_segments(self.directory)
        report.bytes_after = sum(
            path.stat().st_size for path in remaining
        )
        self._index = {entry.key: entry for _, entry in survivors}
        return report

    def export(self, path: Path) -> int:
        """Write every live entry (plus a header) to one JSONL file."""
        records = [self._segment_header()]
        records.extend(
            entry.to_record() for entry in self._index.values()
        )
        return journal.write_export(Path(path), records) - 1

    def import_file(self, path: Path) -> int:
        """Merge entries exported by another shard into this store."""
        scan = journal.read_export(Path(path))
        if scan.errors:
            first_line, reason = scan.errors[0]
            raise StoreError(
                f"{path}: line {first_line}: {reason}"
            )
        imported = 0
        for record in scan.records:
            if record.get("schema") != SCHEMA_STORE_ENTRY:
                continue
            if validate_record(record) is not None:
                raise StoreError(
                    f"{path}: malformed store entry {record!r}"
                )
            entry = StoreEntry.from_record(record)
            if entry.key in self._index:
                continue
            self.put(entry)
            imported += 1
        return imported

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Rebuild the index from the segments (newest entry wins)."""
        for scan in journal.scan_store(self.directory):
            segment_schema = STORE_SCHEMA_VERSION
            for record in scan.records:
                schema = record.get("schema")
                if schema == SCHEMA_STORE_SEGMENT:
                    raw = record.get("store_schema")
                    segment_schema = raw if isinstance(raw, int) else -1
                    continue
                if schema != SCHEMA_STORE_ENTRY:
                    continue
                if segment_schema != STORE_SCHEMA_VERSION:
                    continue  # stale layout: keys can never match
                if validate_record(record) is not None:
                    continue  # verify() reports it; lookups skip it
                entry = StoreEntry.from_record(record)
                self._index[entry.key] = entry

    def _ensure_writer(self) -> journal.JournalWriter:
        """Claim this session's segment on first write."""
        if self._writer is None:
            manifest = RunManifest.collect(store="journal-session")
            self._session_created_at = manifest.created_at
            self._session_git_sha = manifest.git_sha
            segment = journal.claim_segment(self.directory)
            self._writer = journal.JournalWriter(segment)
            self._writer.write(self._segment_header(manifest))
        return self._writer

    def _segment_header(
        self, manifest: Optional[RunManifest] = None
    ) -> Dict[str, Any]:
        """The provenance header opening every segment."""
        if manifest is None:
            manifest = RunManifest.collect(store="journal-session")
            if not self._session_created_at:
                self._session_created_at = manifest.created_at
                self._session_git_sha = manifest.git_sha
        return {
            "schema": SCHEMA_STORE_SEGMENT,
            "store_schema": STORE_SCHEMA_VERSION,
            "created_at": manifest.created_at,
            "manifest": manifest.to_dict(),
        }
