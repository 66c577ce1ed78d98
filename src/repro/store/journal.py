"""The journal: the only module that touches result-store files.

Everything the store persists flows through here, so the crash-safety
story stays in one place:

* a store directory holds ``segments/seg-NNNNN.jsonl`` files, each an
  **append-only** JSONL stream.  A writer session *claims* a fresh
  segment with ``O_CREAT | O_EXCL`` (no two processes ever share one),
  so concurrent campaigns — or farm shards writing into one shared
  directory — can never interleave partial lines;
* records are written one line at a time through a line-buffered
  handle.  A killed process leaves at worst one torn final line;
* :func:`scan_segment` implements recovery: a file whose last line is
  not newline-terminated lost its tail to a crash — the torn line is
  dropped (the run it described was never acknowledged, so dropping it
  is exact), while a malformed line *before* the tail is real
  corruption and is reported;
* garbage collection rewrites the surviving records into a freshly
  claimed segment and only then removes the old files, so a crash
  mid-gc loses nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, TextIO, Tuple

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


def record_line(record: Dict[str, Any]) -> str:
    """The exact newline-terminated line a record journals as.

    Exposed so size accounting (gc ``max_bytes``) measures the same
    bytes the writer will produce.
    """
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )


class JournalWriter:
    """An append-only, line-buffered segment writer."""

    def __init__(self, path: Path, mode: str = "a") -> None:
        if mode not in ("a", "w"):
            raise ValueError("journal files are append ('a') or fresh ('w')")
        self.path = Path(path)
        self._file: TextIO = open(  # noqa: SIM115 - lifetime-managed
            self.path, mode, buffering=1, encoding="utf-8"
        )
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as one newline-terminated line."""
        self._file.write(record_line(record))
        self.records_written += 1

    def close(self) -> None:
        """Flush and close (idempotent)."""
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
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: ``(line_number, reason)`` of malformed lines *before* the tail
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: the final line was cut mid-write by a crash and was dropped
    torn_tail: bool = False
    bytes: int = 0


def scan_segment(path: Path) -> SegmentScan:
    """Read one segment, applying the crash-recovery rules."""
    scan = SegmentScan(path=Path(path))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        scan.errors.append((0, f"unreadable segment: {error}"))
        return scan
    scan.bytes = len(text.encode("utf-8"))
    if not text:
        return scan
    complete = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for number, line in enumerate(lines, start=1):
        is_tail = number == len(lines)
        if is_tail and not complete:
            # a torn tail is an expected crash artifact, not corruption
            scan.torn_tail = True
            continue
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
        scan.records.append(record)
    return scan


def scan_store(store_dir: Path) -> Iterator[SegmentScan]:
    """Scan every segment of a store, in claim order."""
    for path in list_segments(store_dir):
        yield scan_segment(path)


def remove_segment(path: Path) -> None:
    """Delete one segment file (gc compaction only)."""
    Path(path).unlink()


def write_export(path: Path, records: List[Dict[str, Any]]) -> int:
    """Write records to a standalone JSONL file (``store export``)."""
    with JournalWriter(Path(path), mode="w") as writer:
        for record in records:
            writer.write(record)
        return writer.records_written


def read_export(path: Path) -> SegmentScan:
    """Read a standalone JSONL file (``store import``)."""
    return scan_segment(Path(path))
