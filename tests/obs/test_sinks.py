"""JSONL sinks: writers, streaming tracer, schema validation."""

from __future__ import annotations

import json

import pytest

import repro.obs.sinks as sinks
from repro.obs.sinks import (
    JsonlTracer,
    JsonlWriter,
    MetricsSink,
    SCHEMA_LIFECYCLE,
    SCHEMA_METRICS,
    SCHEMA_RUN,
    SCHEMA_TRACE,
    iter_jsonl,
    validate_file,
    validate_record,
)


def run_record(run, event, **fields):
    return {"schema": SCHEMA_RUN, "run": run, "event": event, **fields}


class TestJsonlWriter:
    def test_appends_one_line_per_record(self, tmp_path):
        path = tmp_path / "out.jsonl"
        records = [
            run_record("a", "start"),
            run_record("a", "end", cycles=[1, 2]),
            run_record("b", "start"),
        ]
        with JsonlWriter(str(path)) as writer:
            writer.write(records[0])
            writer.write(records[1])
            assert writer.lines_written == 2
        with JsonlWriter(str(path)) as writer:  # append, not truncate
            writer.write(records[2])
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_non_json_values_fall_back_to_repr(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlWriter(str(path)) as writer:
            writer.write(run_record("a", "start", obj=object()))
        (line,) = path.read_text().strip().splitlines()
        assert "object object" in json.loads(line)["obj"]

    def test_close_is_idempotent(self, tmp_path):
        writer = JsonlWriter(str(tmp_path / "out.jsonl"))
        writer.close()
        writer.close()


class TestMetricsSink:
    def test_run_events_and_points(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink = MetricsSink(str(path))
        sink.write_run_event("r1", "start", seed=7)
        sink.write_point("r1", 100, {"g": 1.5})
        sink.write_run_event("r1", "end", cycles=200)
        sink.close()
        records = [obj for _, obj in iter_jsonl(str(path))]
        assert [r["schema"] for r in records] == [
            SCHEMA_RUN, SCHEMA_METRICS, SCHEMA_RUN
        ]
        assert records[0]["seed"] == 7
        assert records[1] == {
            "schema": SCHEMA_METRICS, "run": "r1",
            "cycle": 100, "values": {"g": 1.5},
        }
        assert validate_file(str(path)) == (3, [])


class TestJsonlTracer:
    def test_streams_without_retaining(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), run="r9")
        tracer.emit(5, "sw0", "flit_in", port=2)
        tracer.emit(6, "sw0", "flit_in", port=3)
        tracer.close()
        assert tracer.records == []  # not memory-bound
        assert tracer.lines_written == 2
        records = [obj for _, obj in iter_jsonl(str(path))]
        assert records[0] == {
            "schema": SCHEMA_TRACE, "run": "r9", "cycle": 5,
            "source": "sw0", "event": "flit_in", "details": {"port": 2},
        }
        assert validate_file(str(path)) == (2, [])


class TestWriteValidates:
    """A writer refuses a record that would not read back valid, and
    leaves the file as it was."""

    def test_unregistered_schema_through_write_point(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "m.jsonl"
        sink = MetricsSink(str(path))
        sink.write_point("r1", 100, {"g": 1.5})
        before = (path.read_bytes(), sink.lines_written)
        monkeypatch.setattr(sinks, "SCHEMA_METRICS", "repro.bogus/1")
        with pytest.raises(ValueError, match="unknown schema"):
            sink.write_point("r1", 200, {"g": 2.5})
        sink.close()
        assert (path.read_bytes(), sink.lines_written) == before
        assert validate_file(str(path)) == (1, [])

    def test_missing_field_through_emit(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(path), run="r9")
        tracer.emit(5, "sw0", "flit_in", port=2)
        before = (path.read_bytes(), tracer.lines_written)
        # a trace record stamped with the lifecycle tag has no "packet"
        monkeypatch.setattr(sinks, "SCHEMA_TRACE", SCHEMA_LIFECYCLE)
        with pytest.raises(ValueError, match="missing required field"):
            tracer.emit(6, "sw0", "flit_in", port=3)
        tracer.close()
        assert (path.read_bytes(), tracer.lines_written) == before
        assert validate_file(str(path)) == (1, [])


class TestValidation:
    def test_unknown_schema_rejected(self):
        assert "unknown schema" in validate_record({"schema": "nope/9"})
        assert validate_record([1, 2]) == "record is not a JSON object"

    def test_metrics_record_requirements(self):
        good = {
            "schema": SCHEMA_METRICS, "run": "r", "cycle": 0, "values": {}
        }
        assert validate_record(good) is None
        assert validate_record({**good, "cycle": -1}) is not None
        assert validate_record({**good, "cycle": "0"}) is not None
        assert validate_record({**good, "values": {"g": "high"}}) is not None
        assert validate_record({**good, "run": 7}) is not None

    def test_trace_record_requirements(self):
        good = {
            "schema": SCHEMA_TRACE, "run": "r", "cycle": 1,
            "source": "sw0", "event": "flit_in", "details": {},
        }
        assert validate_record(good) is None
        assert validate_record({**good, "details": None}) is not None
        assert validate_record({**good, "source": 3}) is not None

    def test_missing_required_field_rejected(self):
        record = {
            "schema": SCHEMA_TRACE, "run": "r", "cycle": 1,
            "source": "sw0", "event": "flit_in", "details": {},
        }
        del record["run"]
        problem = validate_record(record)
        assert problem is not None
        assert "missing required field" in problem
        assert "run" in problem

    def test_run_record_requirements(self):
        good = {"schema": SCHEMA_RUN, "run": "r", "event": "start"}
        assert validate_record(good) is None
        assert validate_record({**good, "event": "middle"}) is not None

    def test_validate_file_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"schema": SCHEMA_RUN, "run": "r", "event": "start"}
            )
            + "\nnot json\n"
            + json.dumps({"schema": "bogus/1"})
            + "\n"
        )
        valid, errors = validate_file(str(path))
        assert valid == 1
        assert len(errors) == 2
        assert errors[0].startswith("line 2:")
        assert errors[1].startswith("line 3:")

    def test_iter_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert [n for n, _ in iter_jsonl(str(path))] == [1, 3]
