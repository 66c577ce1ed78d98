"""`python -m repro profile` CLI: reports, exports, digests, errors."""

from __future__ import annotations

import json

from repro.obs.profile import validate_chrome_trace
from repro.obs.profile.runner import main
from repro.obs.sinks import (
    PROFILE_SECTIONS,
    SCHEMA_LIFECYCLE,
    SCHEMA_PROFILE,
    validate_record,
)


class TestProfileCli:
    def test_profiles_both_archs_and_exports(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        digest_path = tmp_path / "digest.jsonl"
        code = main(
            [
                "--scenario", "saturation-hotspot",
                "--arch", "both",
                "--max-cycles", "400",
                "--export-trace", str(trace_path),
                "--out", str(digest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel [cb/saturation-hotspot]" in out
        assert "kernel [ib/saturation-hotspot]" in out
        assert "worm phases" in out
        assert "link utilisation" in out

        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {1, 2}  # one process row per architecture

        records = [
            json.loads(line)
            for line in digest_path.read_text().splitlines()
        ]
        for record in records:
            assert validate_record(record) is None
        sections = {
            (r["arch"], r["section"])
            for r in records
            if r["schema"] == SCHEMA_PROFILE
        }
        assert sections == {
            (arch, section)
            for arch in ("cb", "ib")
            for section in PROFILE_SECTIONS
        }
        lives = [r for r in records if r["schema"] == SCHEMA_LIFECYCLE]
        assert lives
        assert all("packet" in r for r in lives)

    def test_single_arch_run(self, capsys):
        code = main(
            ["--scenario", "saturation-hotspot", "--arch", "cb",
             "--max-cycles", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel [cb/saturation-hotspot]" in out
        assert "ib/" not in out

    def test_unknown_scenario_fails_with_catalogue(self, capsys):
        code = main(["--scenario", "no-such-scenario"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "saturation-hotspot" in err  # the catalogue is listed
