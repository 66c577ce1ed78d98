"""Streaming JSONL sinks for traces and sampled metrics.

Every emitted line is a self-describing JSON object carrying a
``schema`` tag, so one file can interleave run headers, metric samples
and trace events, and downstream tools (``python -m repro inspect``, the
CI smoke job) can validate files without out-of-band context:

``repro.run/1``
    Run lifecycle: an ``event: "start"`` line with the config
    fingerprint and seed, and an ``event: "end"`` line with cycles,
    wall-time and the final counter/histogram snapshot.
``repro.metrics/1``
    One sampled gauge snapshot: ``{"run", "cycle", "values"}``.
``repro.trace/1``
    One traced simulator event: ``{"run", "cycle", "source", "event",
    "details"}``.
``repro.manifest/1``
    A whole-file run manifest (see :mod:`repro.obs.manifest`).
``repro.profile/1``
    One named profiling section (``kernel``, ``spans``, ``phases``,
    ``heatmap``, ``counters`` or ``run``) from an instrumented run:
    ``{"run", "section", "data"}`` (see :mod:`repro.obs.profile`).
``repro.lifecycle/1``
    One digested worm lifecycle: ``{"run", "packet", "setup",
    "blocked", "transfer", ...}`` (see
    :mod:`repro.obs.profile.lifecycle`).
``repro.store.segment/1`` / ``repro.store.entry/1``
    Result-store journal lines: a per-writer-session segment header
    (store schema version, creation time, provenance manifest) and one
    content-addressed cached run value per entry (see
    :mod:`repro.store` and ``docs/result-store.md``).

Writers open their file in append mode and emit each record as a single
line-buffered write, so several worker processes of one experiment grid
can share a file; lines from different runs are distinguished by their
``run`` tag, never by position.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.trace import Tracer

SCHEMA_RUN = "repro.run/1"
SCHEMA_METRICS = "repro.metrics/1"
SCHEMA_TRACE = "repro.trace/1"
SCHEMA_MANIFEST = "repro.manifest/1"
SCHEMA_PROFILE = "repro.profile/1"
SCHEMA_LIFECYCLE = "repro.lifecycle/1"
SCHEMA_STORE_SEGMENT = "repro.store.segment/1"
SCHEMA_STORE_ENTRY = "repro.store.entry/1"

#: section names a ``repro.profile/1`` record may carry
PROFILE_SECTIONS = (
    "run", "kernel", "spans", "phases", "heatmap", "counters"
)

#: the registered schema tags and the top-level fields each requires.
#: Both ends of a JSONL file check it through :func:`validate_record`:
#: :meth:`JsonlWriter.write` refuses a record that fails it, and
#: :func:`validate_file` reports a line read back that fails it.
SCHEMA_FIELDS: Dict[str, Tuple[str, ...]] = {
    SCHEMA_RUN: ("run", "event"),
    SCHEMA_METRICS: ("run", "cycle", "values"),
    SCHEMA_TRACE: ("run", "cycle", "source", "event", "details"),
    SCHEMA_MANIFEST: ("python_version", "git_sha", "created_at"),
    SCHEMA_PROFILE: ("run", "section", "data"),
    SCHEMA_LIFECYCLE: ("run", "packet"),
    SCHEMA_STORE_SEGMENT: ("store_schema", "created_at"),
    SCHEMA_STORE_ENTRY: ("key", "fn", "result_version", "value"),
}


def _dumps(obj: Dict[str, Any]) -> str:
    """Canonical single-line JSON; non-JSON values fall back to repr."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=repr
    )


class JsonlWriter:
    """An append-mode, line-buffered JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "a", buffering=1, encoding="utf-8")
        self.lines_written = 0

    def write(self, obj: Dict[str, Any]) -> None:
        """Emit one record as one line.

        Raises :class:`ValueError`, writing nothing, when the record
        fails :func:`validate_record`, so every file a writer produces
        reads back valid.
        """
        problem = validate_record(obj)
        if problem is not None:
            raise ValueError(f"{self.path}: {problem}")
        self._file.write(_dumps(obj) + "\n")
        self.lines_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MetricsSink(JsonlWriter):
    """Writes run headers and sampled metric points."""

    def write_run_event(self, run: str, event: str, **fields: Any) -> None:
        """Emit a ``repro.run/1`` lifecycle line (``start``/``end``)."""
        self.write(
            {"schema": SCHEMA_RUN, "run": run, "event": event, **fields}
        )

    def write_point(
        self, run: str, cycle: int, values: Dict[str, float]
    ) -> None:
        """Emit one sampled gauge snapshot."""
        self.write(
            {
                "schema": SCHEMA_METRICS,
                "run": run,
                "cycle": cycle,
                "values": values,
            }
        )


class JsonlTracer(Tracer):
    """A :class:`~repro.sim.trace.Tracer` that streams to a JSONL file.

    Unlike the in-memory tracer this is not memory-bound: records go
    straight to disk and are **not** retained in the ring buffer.
    """

    def __init__(self, path: str, run: str = "") -> None:
        super().__init__()
        self.run = run
        self._writer = JsonlWriter(path)

    @property
    def lines_written(self) -> int:
        """Trace records streamed to disk so far."""
        return self._writer.lines_written

    def emit(self, cycle: int, source: str, event: str, **details: Any) -> None:
        """Stream one event."""
        self._writer.write(
            {
                "schema": SCHEMA_TRACE,
                "run": self.run,
                "cycle": cycle,
                "source": source,
                "event": event,
                "details": details,
            }
        )

    def close(self) -> None:
        """Flush and close the underlying file."""
        self._writer.close()


# ----------------------------------------------------------------------
# reading and validation
# ----------------------------------------------------------------------
def iter_jsonl(path: str) -> Iterator[Tuple[int, Any]]:
    """Yield ``(line_number, parsed_object_or_exception)`` per line."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield number, json.loads(line)
            except json.JSONDecodeError as error:
                yield number, error


def validate_record(obj: Any) -> Optional[str]:
    """Return an error string for a malformed record, else ``None``."""
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    schema = obj.get("schema")
    if schema not in SCHEMA_FIELDS:
        return f"unknown schema {schema!r}"
    missing = [name for name in SCHEMA_FIELDS[schema] if name not in obj]
    if missing:
        return (
            f"record is missing required field(s) "
            f"{', '.join(missing)} for schema {schema!r}"
        )
    if schema == SCHEMA_METRICS:
        if not isinstance(obj.get("cycle"), int) or obj["cycle"] < 0:
            return "metrics point needs a non-negative integer 'cycle'"
        values = obj.get("values")
        if not isinstance(values, dict) or not all(
            isinstance(v, (int, float)) for v in values.values()
        ):
            return "metrics point needs a numeric 'values' mapping"
        if not isinstance(obj.get("run"), str):
            return "metrics point needs a string 'run' tag"
    elif schema == SCHEMA_TRACE:
        if not isinstance(obj.get("cycle"), int):
            return "trace record needs an integer 'cycle'"
        for key in ("source", "event"):
            if not isinstance(obj.get(key), str):
                return f"trace record needs a string {key!r}"
        if not isinstance(obj.get("details"), dict):
            return "trace record needs a 'details' object"
    elif schema == SCHEMA_RUN:
        if not isinstance(obj.get("run"), str):
            return "run record needs a string 'run' tag"
        if obj.get("event") not in ("start", "end"):
            return "run record 'event' must be 'start' or 'end'"
    elif schema == SCHEMA_MANIFEST:
        for key in ("python_version", "git_sha", "created_at"):
            if not isinstance(obj.get(key), str):
                return f"manifest needs a string {key!r}"
    elif schema == SCHEMA_PROFILE:
        if not isinstance(obj.get("run"), str):
            return "profile record needs a string 'run' tag"
        if obj.get("section") not in PROFILE_SECTIONS:
            return (
                "profile record 'section' must be one of "
                + ", ".join(PROFILE_SECTIONS)
            )
        if not isinstance(obj.get("data"), dict):
            return "profile record needs a 'data' object"
    elif schema == SCHEMA_STORE_SEGMENT:
        if not isinstance(obj.get("store_schema"), int):
            return "store segment header needs an integer 'store_schema'"
        if not isinstance(obj.get("created_at"), str):
            return "store segment header needs a string 'created_at'"
    elif schema == SCHEMA_STORE_ENTRY:
        if not isinstance(obj.get("key"), str) or not obj["key"]:
            return "store entry needs a non-empty string 'key'"
        if not isinstance(obj.get("fn"), str):
            return "store entry needs a string 'fn' reference"
        if not isinstance(obj.get("result_version"), int):
            return "store entry needs an integer 'result_version'"
    elif schema == SCHEMA_LIFECYCLE:
        if not isinstance(obj.get("run"), str):
            return "lifecycle record needs a string 'run' tag"
        if not isinstance(obj.get("packet"), int) or obj["packet"] < 0:
            return "lifecycle record needs a non-negative int 'packet'"
        for key in ("setup", "blocked", "transfer"):
            value = obj.get(key)
            if value is not None and (
                not isinstance(value, int) or value < 0
            ):
                return f"lifecycle {key!r} must be a non-negative int"
    return None


def validate_file(path: str) -> Tuple[int, List[str]]:
    """Validate every line of a JSONL file.

    Returns ``(valid_line_count, errors)`` where each error is a
    ``"line N: reason"`` string.
    """
    valid = 0
    errors: List[str] = []
    for number, obj in iter_jsonl(path):
        if isinstance(obj, Exception):
            errors.append(f"line {number}: invalid JSON ({obj})")
            continue
        problem = validate_record(obj)
        if problem is not None:
            errors.append(f"line {number}: {problem}")
        else:
            valid += 1
    return valid, errors
