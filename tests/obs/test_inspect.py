"""The ``python -m repro inspect`` subcommand."""

from __future__ import annotations

import json
import pathlib

from repro.obs.inspect import main as inspect_main
from repro.obs.manifest import RunManifest
from repro.obs.sinks import MetricsSink, SCHEMA_TRACE


def _write_metrics(path):
    sink = MetricsSink(str(path))
    sink.write_run_event(
        "r1", "start", config="repro(N=16)", seed=1, workload="W"
    )
    for cycle in (0, 100, 200):
        sink.write_point(
            "r1", cycle, {"cb.occupancy_chunks": float(cycle) / 100}
        )
    sink.write_run_event(
        "r1", "end", cycles=250, wall_seconds=0.5,
        counters={"switch.flits_forwarded": 9},
    )
    sink.close()


class TestSummarise:
    def test_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        _write_metrics(path)
        assert inspect_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s), 3 metric sample(s)" in out
        assert "run r1 (seed=1), 250 cycles" in out
        assert "cb.occupancy_chunks" in out
        assert "switch.flits_forwarded" in out
        # the occupancy chart renders (non-zero series, >= 2 points)
        assert "over time" in out

    def test_no_chart_flag(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        _write_metrics(path)
        assert inspect_main([str(path), "--no-chart"]) == 0
        assert "over time" not in capsys.readouterr().out

    def test_trace_file_counts_events(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        lines = [
            {"schema": SCHEMA_TRACE, "run": "r", "cycle": i,
             "source": "sw0", "event": "flit_in", "details": {}}
            for i in range(3)
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        assert inspect_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace events (3 records)" in out
        assert "flit_in" in out

    def test_manifest_file(self, tmp_path, capsys):
        path = tmp_path / "run.manifest.json"
        RunManifest.collect(jobs=3).write(str(path))
        assert inspect_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "git SHA" in out

    def test_jsonl_is_streamed_not_read_whole(
        self, tmp_path, capsys, monkeypatch
    ):
        """A ``--trace-out`` file can be large: telling it from a manifest
        reads its first line, and summary and check then stream it."""
        path = tmp_path / "m.jsonl"
        _write_metrics(path)
        read_text = pathlib.Path.read_text

        def refuse_jsonl(self, *args, **kwargs):
            if self == path:
                raise AssertionError(f"{self} was read whole")
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", refuse_jsonl)
        assert inspect_main([str(path)]) == 0
        assert inspect_main(["--check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s), 3 metric sample(s)" in out
        assert "OK (5 line(s))" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert inspect_main([str(tmp_path / "nope.jsonl")]) == 2


class TestCheck:
    def test_valid_files_exit_0(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        _write_metrics(metrics)
        manifest = tmp_path / "run.manifest.json"
        RunManifest.collect().write(str(manifest))
        assert inspect_main(["--check", str(metrics), str(manifest)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_invalid_line_exits_1(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        _write_metrics(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema":"bogus/1"}\n')
        assert inspect_main(["--check", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out
