"""The journal's on-disk format, pinned byte for byte.

A fixed set of entries is journaled through :meth:`JournalStore.put`
and its entry lines are compared with ``format_pin.jsonl``, which was
written by an earlier version of the store.  The same fixture, behind a
segment header, is reopened as a store: it must verify clean and every
key must hit with its value.  Together the two tests say that a store
written before a change to the store keeps hitting after it, and the
reverse.  Regenerate the fixture only with a ``STORE_SCHEMA_VERSION``
bump: a changed line is a changed format.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.network.simulation import RunSummary, StatsSummary
from repro.obs.sinks import SCHEMA_STORE_SEGMENT
from repro.store.backend import JournalStore, StoreEntry
from repro.store.codec import decode_value, encode_value
from repro.store.hashing import STORE_SCHEMA_VERSION
from repro.store.journal import list_segments

FIXTURE = Path(__file__).with_name("format_pin.jsonl")

#: key -> the value journaled under it
VALUES = {
    "pin-run-summary": RunSummary(
        num_hosts=64,
        cycles=3_517,
        completed=True,
        operations=23,
        op_last_latency=StatsSummary(23, 301.25, 180.75, 602.5),
        op_average_latency=StatsSummary(23, 241.0, 80.33333333333333,
                                        457.9),
        class_latency={
            "unicast": StatsSummary(1_003, 57.142857142857146,
                                    8.163265306122449, 360.0),
            "multicast": StatsSummary(301, 241.0, 80.33333333333333,
                                      602.5),
        },
        class_deliveries={"unicast": 1_003, "multicast": 301},
        class_payload_flits={"unicast": 16_048, "multicast": 19_264},
        extras={"occupancy_mean": 12.454545454545455},
    ),
    "pin-nested": {
        "outer": {"inner": (1, (2.5, "x")), "empty": [(), {}]},
        "order": {"z": 1, "a": (None, False)},
    },
    "pin-non-ascii": {"label": "naïve – 線路 ✓", "ключ": "é"},
    "pin-escapes": ['back\\slash "quoted"', "tab\tnew\nline"],
    "pin-floats": [0.1, 1e-300, -0.0],
}


def _entries():
    for position, (key, value) in enumerate(VALUES.items()):
        yield StoreEntry(
            key=key,
            fn="tests.store.test_format_pin:worker",
            result_version=1,
            value=encode_value(value),
            wall_seconds=0.125 * (position + 1),
            created_at="2026-01-02T03:04:05Z",
            git_sha="0123456789abcdef0123456789abcdef01234567",
        )


def test_put_journals_the_pinned_bytes(tmp_path):
    with JournalStore(tmp_path / "store") as store:
        for entry in _entries():
            store.put(entry)
    (segment,) = list_segments(tmp_path / "store")
    written = segment.read_bytes().splitlines(keepends=True)[1:]
    assert written == FIXTURE.read_bytes().splitlines(keepends=True)


def test_a_store_written_from_the_fixture_hits(tmp_path):
    segments = tmp_path / "store" / "segments"
    segments.mkdir(parents=True)
    header = {
        "schema": SCHEMA_STORE_SEGMENT,
        "store_schema": STORE_SCHEMA_VERSION,
        "created_at": "2026-01-02T03:04:05Z",
        "manifest": {},
    }
    (segments / "seg-00001.jsonl").write_bytes(
        json.dumps(header).encode("utf-8") + b"\n" + FIXTURE.read_bytes()
    )
    with JournalStore(tmp_path / "store", create=False) as store:
        report = store.verify()
        assert report.ok, report.render()
        assert report.entries == len(VALUES)
        for entry in _entries():
            hit = store.get(entry.key)
            assert hit == entry
            value = decode_value(hit.value)
            assert value == VALUES[entry.key]
            assert type(value) is type(VALUES[entry.key])
        floats = decode_value(store.get("pin-floats").value)
        assert math.copysign(1.0, floats[2]) == -1.0
        nested = decode_value(store.get("pin-nested").value)
        assert list(nested["order"]) == ["z", "a"]
        assert nested["outer"]["inner"] == (1, (2.5, "x"))
