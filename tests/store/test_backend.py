"""Backend behaviour: journal recovery, gc, verify, export/import."""

from __future__ import annotations

import errno
import json

import pytest

from repro.obs.manifest import utc_now_iso
from repro.obs.sinks import SCHEMA_STORE_ENTRY, SCHEMA_STORE_SEGMENT
from repro.store.backend import (
    JournalStore,
    MemoryStore,
    StoreEntry,
    StoreError,
)
from repro.store.hashing import STORE_SCHEMA_VERSION
from repro.store import journal
from repro.store.journal import list_segments


def _entry(key: str, payload: int, **overrides) -> StoreEntry:
    defaults = dict(
        key=key,
        fn="tests.store:worker",
        result_version=1,
        value={"$dict": [["payload", payload]]},
        wall_seconds=0.5,
    )
    defaults.update(overrides)
    return StoreEntry(**defaults)


class _FillingDisk:
    """Opens journal files for writing whose raw writes stop with
    ``ENOSPC`` after ``room`` more bytes (``None``: no limit), the way a
    full disk does: the write that reaches the limit lands part of its
    bytes and reports how many, and the next one fails."""

    def __init__(self) -> None:
        self.room = None
        self.landed = 0

    def open(self, path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        return handle if mode.startswith("r") else _FillingFile(self, handle)


class _FillingFile:
    def __init__(self, disk: _FillingDisk, raw) -> None:
        self._disk = disk
        self._raw = raw

    def write(self, data) -> int:
        room = self._disk.room
        if room is None:
            return self._raw.write(data)
        if room == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        landed = self._raw.write(bytes(data[:room]))
        self._disk.room -= landed
        self._disk.landed += landed
        return landed

    def __getattr__(self, name):
        return getattr(self._raw, name)


def _segment_lines(store_dir) -> list:
    segments = list_segments(store_dir)
    assert segments, f"no segments under {store_dir}"
    lines = []
    for path in segments:
        lines.extend(path.read_text(encoding="utf-8").splitlines())
    return lines


class TestMemoryStore:
    def test_get_put_stats(self):
        store = MemoryStore()
        assert store.get("missing") is None
        store.put(_entry("k1", 1))
        store.put(_entry("k1", 2))
        assert store.get("k1").value == {"$dict": [["payload", 2]]}
        assert store.puts == 2
        assert store.stats()["entries"] == 1
        store.close()


class TestStoreEntryRecord:
    def test_record_roundtrip(self):
        entry = _entry("k", 7, created_at="2026-08-08T00:00:00Z",
                       git_sha="abc123")
        record = entry.to_record()
        assert record["schema"] == SCHEMA_STORE_ENTRY
        assert StoreEntry.from_record(record) == entry


class TestJournalStore:
    def test_entries_survive_reopen_newest_wins(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k1", 1))
            store.put(_entry("k2", 2))
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k1", 10))
        with JournalStore(tmp_path / "store") as store:
            assert store.get("k1").value == {"$dict": [["payload", 10]]}
            assert store.get("k2").value == {"$dict": [["payload", 2]]}
            stats = store.stats()
        assert stats["entries"] == 2
        assert stats["segments"] == 2
        assert stats["bytes"] > 0

    def test_missing_store_without_create_raises(self, tmp_path):
        with pytest.raises(StoreError):
            JournalStore(tmp_path / "absent", create=False)

    def test_each_writer_session_claims_its_own_segment(self, tmp_path):
        for round_number in range(3):
            with JournalStore(tmp_path / "store") as store:
                store.put(_entry(f"k{round_number}", round_number))
        names = [path.name for path in list_segments(tmp_path / "store")]
        assert names == ["seg-00001.jsonl", "seg-00002.jsonl",
                         "seg-00003.jsonl"]

    def test_session_stamps_provenance(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k", 1))
            stamped = store.get("k")
        assert stamped.created_at
        assert stamped.git_sha


class TestCrashRecovery:
    def test_torn_tail_is_recovered_not_reported(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k1", 1))
            store.put(_entry("k2", 2))
        segment = list_segments(tmp_path / "store")[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.store.entry/1", "k')
        with JournalStore(tmp_path / "store") as store:
            assert store.get("k1") is not None
            assert store.get("k2") is not None
            report = store.verify()
        assert report.ok
        assert report.torn_tails == 1
        assert report.entries == 2

    def test_the_next_session_never_appends_to_a_torn_tail(self, tmp_path):
        # a writer claims a fresh segment: appending to the torn one would
        # glue its first record onto the cut line and lose it
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k1", 1))
        segment = list_segments(tmp_path / "store")[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.store.entry/1", "k')
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k2", 2))
        with JournalStore(tmp_path / "store") as store:
            assert store.get("k2") is not None
            report = store.verify()
        assert report.ok
        assert report.torn_tails == 1

    def test_a_failed_append_fails_closed(self, tmp_path, monkeypatch):
        # the disk fills up part-way through a line: the error reaches the
        # caller, the index never takes the line, the bytes that did land
        # are cut back off, and neither the next put nor the close brings
        # the failed line back
        disk = _FillingDisk()
        monkeypatch.setattr(journal, "open", disk.open, raising=False)
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k1", 1))
            segment = list_segments(tmp_path / "store")[-1]
            before = segment.read_bytes()
            disk.room = 10
            with pytest.raises(OSError) as raised:
                store.put(_entry("k2", 2))
            assert raised.value.errno == errno.ENOSPC
            assert disk.landed == 10
            assert segment.read_bytes() == before
            assert store.get("k2") is None
            assert store.stats()["entries"] == 1
            disk.room = None
            store.put(_entry("k3", 3))
            assert store.verify().ok
        with JournalStore(tmp_path / "store") as store:
            report = store.verify()
            assert store.get("k2") is None
            assert store.get("k1") is not None
            assert store.get("k3") is not None
        assert report.ok, report.render()
        assert report.torn_tails == 0
        assert report.entries == 2

    def test_a_failed_segment_header_is_not_written_under(
        self, tmp_path, monkeypatch
    ):
        # the disk is full when the session claims its segment: the put
        # fails, and the next put opens a segment of its own instead of
        # journaling entries behind a header that was never written
        disk = _FillingDisk()
        monkeypatch.setattr(journal, "open", disk.open, raising=False)
        disk.room = 0
        with JournalStore(tmp_path / "store") as store:
            with pytest.raises(OSError):
                store.put(_entry("k1", 1))
            disk.room = None
            store.put(_entry("k2", 2))
        with JournalStore(tmp_path / "store") as store:
            report = store.verify()
            assert store.get("k1") is None
            assert store.get("k2") is not None
        assert report.ok, report.render()
        assert report.entries == 1

    def test_mid_file_corruption_is_reported(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(_entry("k1", 1))
            store.put(_entry("k2", 2))
        segment = list_segments(tmp_path / "store")[-1]
        lines = segment.read_text(encoding="utf-8").splitlines()
        lines.insert(2, "not json at all {{{")
        segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with JournalStore(tmp_path / "store") as store:
            report = store.verify()
        assert not report.ok
        assert any("invalid JSON" in message for message in report.errors)

    def test_missing_segment_header_is_reported(self, tmp_path):
        store_dir = tmp_path / "store"
        segments = store_dir / "segments"
        segments.mkdir(parents=True)
        line = json.dumps(_entry("k", 1).to_record())
        (segments / "seg-00001.jsonl").write_text(
            line + "\n", encoding="utf-8"
        )
        with JournalStore(store_dir) as store:
            report = store.verify()
        assert any(
            "missing segment header" in message
            for message in report.errors
        )

    def test_stale_schema_segments_are_skipped(self, tmp_path):
        store_dir = tmp_path / "store"
        segments = store_dir / "segments"
        segments.mkdir(parents=True)
        header = {
            "schema": SCHEMA_STORE_SEGMENT,
            "store_schema": STORE_SCHEMA_VERSION - 1,
            "created_at": utc_now_iso(),
            "manifest": {},
        }
        records = [header, _entry("old-key", 1).to_record()]
        (segments / "seg-00001.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records),
            encoding="utf-8",
        )
        with JournalStore(store_dir) as store:
            assert store.get("old-key") is None
            report = store.verify()
            assert report.ok
            assert report.stale_schema == 1
            gc_report = store.gc()
        assert gc_report.dropped_stale == 1
        assert gc_report.kept == 0


class TestGc:
    def test_age_cutoff_drops_old_entries(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(
                _entry("old", 1, created_at="2001-01-01T00:00:00Z")
            )
            store.put(_entry("new", 2, created_at=utc_now_iso()))
            report = store.gc(max_age_days=30.0)
            assert report.dropped_age == 1
            assert report.kept == 1
            assert store.get("old") is None
            assert store.get("new") is not None

    def test_size_cap_evicts_oldest_first(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(
                _entry("old", 1, created_at="2020-01-01T00:00:00Z")
            )
            store.put(
                _entry("mid", 2, created_at="2023-01-01T00:00:00Z")
            )
            store.put(
                _entry("new", 3, created_at="2026-01-01T00:00:00Z")
            )
            line_size = len(
                json.dumps(
                    store.get("new").to_record(),
                    sort_keys=True,
                    separators=(",", ":"),
                )
            ) + 1
            report = store.gc(max_bytes=line_size * 2)
            assert report.dropped_size == 1
            assert report.kept == 2
            assert store.get("old") is None
            assert store.get("new") is not None

    def test_compaction_rewrites_into_one_segment(self, tmp_path):
        for round_number in range(3):
            with JournalStore(tmp_path / "store") as store:
                store.put(_entry(f"k{round_number}", round_number))
        with JournalStore(tmp_path / "store") as store:
            report = store.gc()
            assert report.kept == 3
            assert report.segments_removed == 3
        assert len(list_segments(tmp_path / "store")) == 1
        with JournalStore(tmp_path / "store") as store:
            assert store.stats()["entries"] == 3
            assert store.verify().ok

    def test_dry_run_changes_nothing(self, tmp_path):
        with JournalStore(tmp_path / "store") as store:
            store.put(
                _entry("old", 1, created_at="2001-01-01T00:00:00Z")
            )
        before = _segment_lines(tmp_path / "store")
        with JournalStore(tmp_path / "store") as store:
            report = store.gc(max_age_days=1.0, dry_run=True)
            assert report.dropped_age == 1
            assert store.get("old") is not None
        assert _segment_lines(tmp_path / "store") == before


class TestExportImport:
    def test_export_then_import_merges_new_entries(self, tmp_path):
        with JournalStore(tmp_path / "a") as source:
            source.put(_entry("k1", 1))
            source.put(_entry("k2", 2))
            count = source.export(tmp_path / "dump.jsonl")
        assert count == 2
        with JournalStore(tmp_path / "b") as target:
            target.put(_entry("k1", 99))
            imported = target.import_file(tmp_path / "dump.jsonl")
            assert imported == 1  # k1 already present, kept as-is
            assert target.get("k1").value == {"$dict": [["payload", 99]]}
            assert target.get("k2") is not None
            assert target.verify().ok

    def test_import_of_corrupt_file_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n{}\n", encoding="utf-8")
        with JournalStore(tmp_path / "store") as store:
            with pytest.raises(StoreError):
                store.import_file(bad)
