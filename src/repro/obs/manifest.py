"""Run manifests: the provenance record written beside every run.

A manifest answers "what exactly produced this output?" months later:
the package version, python and platform, the git commit, wall-time and
peak memory of the producing process, plus free-form ``extras`` (the
experiment list, CLI flags, per-run config hashes).  The experiment
runner writes one beside ``--metrics-out``/``--trace-out`` files.
"""

from __future__ import annotations

import calendar
import hashlib
import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.obs.sinks import SCHEMA_MANIFEST


def utc_now_iso() -> str:
    """The current UTC time as an ISO-8601 string.

    Timestamps label artifacts and never enter a result: code that
    needs one — the result store's journal headers, gc age cutoffs —
    calls this, and no simulation reads it.
    """
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def parse_iso(stamp: str) -> Optional[float]:
    """Seconds-since-epoch of an ISO stamp from :func:`utc_now_iso`.

    Returns ``None`` for stamps in any other shape, so callers degrade
    to "age unknown" rather than crash on foreign manifests.
    """
    try:
        parts = time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return None
    return float(calendar.timegm(parts))


def git_sha() -> str:
    """The repository HEAD commit, or ``"unknown"`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or ``None`` if unknown."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return int(peak)
    return int(peak) * 1024  # kilobytes on Linux


def config_sha256(fingerprint: str) -> str:
    """Stable short hash of a config fingerprint string.

    Pair with :func:`repro.network.config.describe`, which includes
    every behaviour-affecting field of a :class:`SimulationConfig`.
    """
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to attribute and reproduce one run."""

    created_at: str
    package_version: str
    python_version: str
    platform: str
    git_sha: str
    wall_seconds: Optional[float] = None
    peak_rss_bytes: Optional[int] = None
    jobs: Optional[int] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    schema: str = SCHEMA_MANIFEST

    @classmethod
    def collect(
        cls,
        wall_seconds: Optional[float] = None,
        jobs: Optional[int] = None,
        **extras: Any,
    ) -> "RunManifest":
        """Capture the current process's provenance."""
        return cls(
            created_at=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            package_version=__version__,
            python_version=platform.python_version(),
            platform=platform.platform(),
            git_sha=git_sha(),
            wall_seconds=wall_seconds,
            peak_rss_bytes=peak_rss_bytes(),
            jobs=jobs,
            extras=dict(extras),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-friendly mapping (schema tag first for humans)."""
        return {
            "schema": self.schema,
            "created_at": self.created_at,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "platform": self.platform,
            "git_sha": self.git_sha,
            "wall_seconds": self.wall_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
            "jobs": self.jobs,
            "extras": self.extras,
        }

    def write(self, path: str) -> None:
        """Write this manifest as an indented JSON file."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Read a manifest written by :meth:`write`."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("schema") != SCHEMA_MANIFEST:
            raise ValueError(
                f"{path}: not a {SCHEMA_MANIFEST} manifest "
                f"(schema={data.get('schema')!r})"
            )
        return cls(
            created_at=data["created_at"],
            package_version=data["package_version"],
            python_version=data["python_version"],
            platform=data["platform"],
            git_sha=data["git_sha"],
            wall_seconds=data.get("wall_seconds"),
            peak_rss_bytes=data.get("peak_rss_bytes"),
            jobs=data.get("jobs"),
            extras=data.get("extras", {}),
        )
