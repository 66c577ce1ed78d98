"""Run manifests: collection, round-trip, hashing."""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path

import pytest

from repro.network.config import SimulationConfig, describe
from repro.obs.manifest import (
    RunManifest,
    config_sha256,
    git_sha,
    peak_rss_bytes,
)
from repro.obs.sinks import SCHEMA_MANIFEST

ROOT = Path(__file__).resolve().parents[2]


def _expected_sha():
    """HEAD of the checkout these tests run in; ``"unknown"`` in a tree
    with no ``.git`` (an exported copy)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    assert len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
    return sha


class TestCollect:
    def test_captures_process_provenance(self):
        manifest = RunManifest.collect(
            wall_seconds=1.5, jobs=4, experiments=["e1"]
        )
        assert manifest.python_version == platform.python_version()
        assert manifest.schema == SCHEMA_MANIFEST
        assert manifest.wall_seconds == 1.5
        assert manifest.jobs == 4
        assert manifest.extras == {"experiments": ["e1"]}
        assert manifest.created_at.endswith("Z")
        assert manifest.git_sha == _expected_sha()

    def test_git_sha_is_hex_or_unknown(self):
        sha = git_sha()
        assert sha == "unknown" or all(
            c in "0123456789abcdef" for c in sha
        )

    def test_peak_rss_positive_on_posix(self):
        peak = peak_rss_bytes()
        assert peak is None or peak > 0


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        original = RunManifest.collect(jobs=2, note="hello")
        original.write(str(path))
        loaded = RunManifest.load(str(path))
        assert loaded == original

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a"):
            RunManifest.load(str(path))

    def test_to_dict_leads_with_schema(self):
        keys = list(RunManifest.collect().to_dict())
        assert keys[0] == "schema"


class TestConfigHash:
    def test_stable_and_short(self):
        fingerprint = describe(SimulationConfig(num_hosts=16))
        assert config_sha256(fingerprint) == config_sha256(fingerprint)
        assert len(config_sha256(fingerprint)) == 16

    def test_sensitive_to_config_changes(self):
        a = config_sha256(describe(SimulationConfig(num_hosts=16)))
        b = config_sha256(describe(SimulationConfig(num_hosts=16, seed=2)))
        assert a != b
