"""The instrumented run path: runtime switch, emitted streams."""

from __future__ import annotations

import pytest

from repro.core.schemes import MulticastScheme
from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation
from repro.obs import harness, runtime
from repro.obs.sinks import (
    PROFILE_SECTIONS,
    SCHEMA_LIFECYCLE,
    SCHEMA_METRICS,
    SCHEMA_PROFILE,
    SCHEMA_RUN,
    iter_jsonl,
    validate_file,
)
from repro.traffic.multicast import SingleMulticast


def _workload():
    return SingleMulticast(
        source=0, degree=4, payload_flits=16,
        scheme=MulticastScheme.HARDWARE,
    )


@pytest.fixture(autouse=True)
def _clean_runtime():
    runtime.reset()
    yield
    runtime.reset()


class TestRuntimeSwitch:
    def test_nothing_configured_by_default(self):
        assert runtime.configured() is None

    def test_enabled_context_restores_previous(self):
        with runtime.enabled(metrics_out="a.jsonl") as options:
            assert runtime.configured() is options
            with runtime.enabled(metrics_out="b.jsonl"):
                assert runtime.configured().metrics_out == "b.jsonl"
            assert runtime.configured() is options
        assert runtime.configured() is None

    def test_effective_sample_every_defaults(self):
        assert runtime.ObsOptions().effective_sample_every == (
            runtime.DEFAULT_SAMPLE_EVERY
        )
        assert runtime.ObsOptions(sample_every=50).effective_sample_every == 50

    def test_run_ids_are_unique(self):
        assert runtime.next_run_id() != runtime.next_run_id()


class TestInstrumentedRun:
    def test_metrics_stream_brackets_each_run(self, tmp_path):
        path = tmp_path / "m.jsonl"
        config = SimulationConfig(num_hosts=16)
        with runtime.enabled(metrics_out=str(path), sample_every=25):
            first = run_simulation(config, _workload())
            second = run_simulation(config, _workload())
        assert first.summary() == second.summary()

        records = [obj for _, obj in iter_jsonl(str(path))]
        runs = [r for r in records if r["schema"] == SCHEMA_RUN]
        points = [r for r in records if r["schema"] == SCHEMA_METRICS]
        assert [r["event"] for r in runs] == ["start", "end", "start", "end"]
        assert len({r["run"] for r in runs}) == 2  # distinct run tags
        assert points, "sampling produced no points"
        start = runs[0]
        assert start["seed"] == config.seed
        assert start["workload"] == "SingleMulticast"
        assert start["config"].startswith("repro(")
        assert len(start["config_sha256"]) == 16
        end = runs[1]
        assert end["cycles"] == first.cycles
        assert end["counters"]["host.messages_delivered"] == 4
        assert end["counters"]["switch.flits_forwarded"] > 0
        assert end["samples"] == sum(
            1 for p in points if p["run"] == start["run"]
        )
        assert validate_file(str(path)) == (len(records), [])

    def test_trace_stream_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with runtime.enabled(trace_out=str(path)):
            run_simulation(SimulationConfig(num_hosts=16), _workload())
        valid, errors = validate_file(str(path))
        assert errors == []
        assert valid > 0

    def test_result_identical_to_plain_run(self):
        config = SimulationConfig(num_hosts=16)
        plain = run_simulation(config, _workload())
        with runtime.enabled(sample_every=10):
            instrumented = run_simulation(config, _workload())
        assert instrumented.summary() == plain.summary()
        assert instrumented.cycles == plain.cycles

    def test_profile_digest_shares_the_run_tag(self, tmp_path):
        metrics = tmp_path / "m.jsonl"
        digest = tmp_path / "p.jsonl"
        config = SimulationConfig(num_hosts=16)
        with runtime.enabled(
            metrics_out=str(metrics), profile_out=str(digest)
        ):
            result = run_simulation(config, _workload())

        records = [obj for _, obj in iter_jsonl(str(digest))]
        assert validate_file(str(digest)) == (len(records), [])
        sections = {
            r["section"]: r["data"]
            for r in records
            if r["schema"] == SCHEMA_PROFILE
        }
        assert set(sections) == set(PROFILE_SECTIONS)
        assert sections["run"]["cycles"] == result.cycles
        assert sections["run"]["config"].startswith("repro(")
        assert sections["counters"]["host.messages_delivered"] == 4
        lives = [r for r in records if r["schema"] == SCHEMA_LIFECYCLE]
        assert lives
        (start, _end) = (
            obj for _, obj in iter_jsonl(str(metrics))
            if obj["schema"] == SCHEMA_RUN
        )
        assert {r["run"] for r in records} == {start["run"]}

    def test_config_that_fails_to_build_leaks_no_open_writer(
        self, tmp_path, monkeypatch
    ):
        opened = []

        def recording(writer_class):
            def build(*args, **kwargs):
                writer = writer_class(*args, **kwargs)
                opened.append(writer)
                return writer
            return build

        monkeypatch.setattr(
            harness, "JsonlTracer", recording(harness.JsonlTracer)
        )
        monkeypatch.setattr(
            harness, "MetricsSink", recording(harness.MetricsSink)
        )
        with runtime.enabled(
            metrics_out=str(tmp_path / "m.jsonl"),
            trace_out=str(tmp_path / "t.jsonl"),
        ):
            with pytest.raises(ConfigurationError):
                run_simulation(SimulationConfig(num_hosts=1), _workload())
        tracer, sink = opened
        assert tracer._writer._file.closed
        assert sink._file.closed
