"""The journal: the only module that touches result-store files.

Everything the store persists flows through here, so the crash-safety
story stays in one place:

* a store directory holds ``segments/seg-NNNNN.jsonl`` files, each an
  **append-only** JSONL stream.  A writer session *claims* a fresh
  segment with ``O_CREAT | O_EXCL`` (no two processes ever share one),
  so concurrent campaigns writing into one shared directory can never
  interleave partial lines;
* records are written one line at a time, straight to the file with
  no buffer in between.  A killed process leaves at worst one torn
  final line, and a write that fails part-way (a full disk) is cut
  back off the file before its error propagates, so neither the next
  write nor the close can carry a failed line into the journal;
* :func:`segment_lines` implements recovery, one line at a time, for
  every reader (reopen, ``verify``, ``gc``, ``import``): a file whose
  last line is not newline-terminated lost its tail to a crash — the
  torn line is dropped (the run it described was never acknowledged,
  so dropping it is exact), while a malformed line *before* the tail
  is real corruption and is reported;
* garbage collection rewrites the surviving records into a freshly
  claimed segment and only then removes the old files, so a crash
  mid-gc loses nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Tuple

SEGMENTS_DIR = "segments"
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".jsonl"


def segments_dir(store_dir: Path) -> Path:
    """The segment directory under a store root (created on demand)."""
    return Path(store_dir) / SEGMENTS_DIR


def list_segments(store_dir: Path) -> List[Path]:
    """Every segment file, in claim order (name-sorted)."""
    directory = segments_dir(store_dir)
    if not directory.is_dir():
        return []
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.startswith(SEGMENT_PREFIX)
        and path.name.endswith(SEGMENT_SUFFIX)
    )


def claim_segment(store_dir: Path) -> Path:
    """Atomically create and own the next free segment file.

    ``O_CREAT | O_EXCL`` makes the claim race-free across processes:
    two writers probing the same index will collide on ``os.open`` and
    one of them moves on to the next number.
    """
    directory = segments_dir(store_dir)
    directory.mkdir(parents=True, exist_ok=True)
    existing = list_segments(store_dir)
    next_index = 1
    if existing:
        last = existing[-1].name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
        try:
            next_index = int(last) + 1
        except ValueError:
            next_index = len(existing) + 1
    while True:
        candidate = directory / (
            f"{SEGMENT_PREFIX}{next_index:05d}{SEGMENT_SUFFIX}"
        )
        try:
            handle = os.open(
                candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            next_index += 1
            continue
        os.close(handle)
        return candidate


#: the one canonical JSON encoder: sorted keys, no whitespace, ASCII.
#: Journal lines and spec fingerprints (:mod:`repro.store.hashing`) are
#: both its output, and one instance serves every call.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode


def record_line(record: Dict[str, Any]) -> str:
    """The exact newline-terminated line a record journals as.

    The open index keeps these lines, so size accounting (gc
    ``max_bytes``) measures the bytes on disk.
    """
    return canonical_json(record) + "\n"


class JournalWriter:
    """An append-only segment writer with no buffer of its own."""

    def __init__(self, path: Path, mode: str = "a") -> None:
        if mode not in ("a", "w"):
            raise ValueError("journal files are append ('a') or fresh ('w')")
        self.path = Path(path)
        self._file = open(  # noqa: SIM115 - lifetime-managed
            self.path, mode + "b", buffering=0
        )
        #: the file's length up to the last line written whole
        self._end = self._file.seek(0, os.SEEK_END)
        self.records_written = 0

    def write(self, line: str) -> None:
        """Append one newline-terminated line (see :func:`record_line`).

        Once this returns the line is in the file: no buffer of ours
        holds it.  If a write fails part-way, the bytes that did land are
        truncated away before the error propagates, so the file still
        ends after the last whole line.
        """
        data = line.encode("utf-8")
        pending = memoryview(data)
        try:
            while pending:
                pending = pending[self._file.write(pending):]
        except BaseException:  # a full disk, or an interrupt between writes
            self._file.truncate(self._end)
            raise
        self._end += len(data)
        self.records_written += 1

    def close(self) -> None:
        """Close (idempotent); nothing is buffered, so nothing is flushed."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class SegmentScan:
    """Everything recovery learned from one segment file."""

    path: Path
    #: the parsed records (:func:`read_export` only; a stream keeps none)
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: ``(line_number, reason)`` of malformed lines *before* the tail
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: the final line was cut mid-write by a crash and was dropped
    torn_tail: bool = False
    bytes: int = 0


def segment_lines(scan: SegmentScan) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Stream ``scan.path`` one line at a time, applying the crash-recovery
    rules: yields each well-formed record with its exact line.

    A final line without its newline is a torn tail: it is dropped and
    ``scan.torn_tail`` set.  A blank line is skipped.  Any other line that
    is not a JSON object is corruption and lands in ``scan.errors``.
    """
    try:
        handle = open(scan.path, encoding="utf-8", newline="\n")
    except OSError as error:
        scan.errors.append((0, f"unreadable segment: {error}"))
        return
    with handle:
        scan.bytes = os.fstat(handle.fileno()).st_size
        for number, line in enumerate(handle, start=1):
            if not line.endswith("\n"):
                # a torn tail is an expected crash artifact, not corruption
                scan.torn_tail = True
                return
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                scan.errors.append((number, f"invalid JSON ({error})"))
                continue
            if not isinstance(record, dict):
                scan.errors.append((number, "record is not a JSON object"))
                continue
            yield line, record


def remove_segment(path: Path) -> None:
    """Delete one segment file (gc compaction only)."""
    Path(path).unlink()


def write_export(path: Path, lines: Iterable[str]) -> int:
    """Write journal lines to a standalone JSONL file (``store export``)."""
    with JournalWriter(Path(path), mode="w") as writer:
        for line in lines:
            writer.write(line)
        return writer.records_written


def read_export(path: Path) -> SegmentScan:
    """Read a standalone JSONL file (``store import``), keeping every
    record (see :func:`segment_lines`)."""
    scan = SegmentScan(path=Path(path))
    scan.records = [record for _, record in segment_lines(scan)]
    return scan
