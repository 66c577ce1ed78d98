"""Experiment harness: structure and shape at micro scale.

These smoke-test the experiment functions themselves (row structure,
table rendering, scheme coverage) with tiny sweeps; the full shape
assertions live in ``benchmarks/``.
"""

from __future__ import annotations

import enum
import json

import pytest

from repro.core.schemes import SwitchArchitecture
from repro.experiments.ablations import (
    run_cb_bandwidth_ablation,
    run_encoding_ablation,
    run_routing_mode_ablation,
)
from repro.experiments.bimodal import run_bimodal
from repro.experiments.common import (
    PAPER,
    QUICK,
    ExperimentResult,
    Scale,
    Scheme,
    base_config,
    mean,
    sweep,
)
from repro.experiments.degree_sweep import run_degree_sweep
from repro.experiments.length_sweep import run_length_sweep
from repro.experiments.multiple_multicast import run_multiple_multicast
from repro.experiments.parallel import RunSpec
from repro.experiments.parameters import run_parameters
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.system_size import run_system_size
from repro.experiments.unicast_baseline import run_unicast_baseline
from repro.obs import runtime as obs_runtime

MICRO = Scale(
    name="micro",
    repeats=1,
    warmup_cycles=50,
    measure_cycles=400,
    max_cycles=60_000,
)
#: MICRO with two seeds, for the factory's seed-order check
MICRO_TWICE = Scale("micro-twice", 2, 50, 400, 60_000)


class TestCommon:
    def test_scales_are_ordered(self):
        assert QUICK.repeats < PAPER.repeats
        assert QUICK.measure_cycles < PAPER.measure_cycles

    def test_seed_lists_deterministic(self):
        assert QUICK.seeds() == QUICK.seeds()
        assert len(PAPER.seeds()) == PAPER.repeats

    def test_scheme_apply(self):
        config = base_config(16)
        cb = Scheme.CB_HW.apply(config)
        ib = Scheme.IB_HW.apply(config)
        assert cb.switch_architecture != ib.switch_architecture
        # software multicast runs on the central-buffer switch
        assert Scheme.SW.apply(config).switch_architecture is (
            SwitchArchitecture.CENTRAL_BUFFER
        )
        assert Scheme.SW.multicast_scheme.value == "software"

    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([2.0, 4.0]) == 3.0

    def test_result_series_and_value(self):
        from repro.metrics.report import Table

        result = ExperimentResult("x", Table("t", ["a"]))
        result.rows = [
            {"k": 1, "v": 10, "s": "a"},
            {"k": 2, "v": 20, "s": "a"},
            {"k": 1, "v": 30, "s": "b"},
        ]
        assert result.series("k", "v", s="a") == [(1, 10), (2, 20)]
        assert result.value("v", k=1, s="b") == 30
        assert result.value("v", s="a") is None  # ambiguous


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


def test_sweep_walks_the_declared_grid_once_to_plan_and_once_to_fold():
    """What no golden isolates: grid order, labels, ``lead`` and the
    interleaving of measures — on a stub spec and fake results."""
    variants = (("small", 1), ("large", 9))
    experiment = sweep(
        "t1",
        "t1_stub",
        defaults=dict(sizes=(2, 1)),
        axes=lambda p: [
            ("size", p.sizes), ("variant", variants), ("colour", Colour),
        ],
        spec=lambda p, key, size, variant, colour, seed: RunSpec(
            key, dict, dict(size=size, variant=variant, colour=colour)
        ),
        measures={
            "runs": lambda p, runs: tuple(runs),
            "total": lambda p, runs: sum(runs) * p.scale.repeats,
        },
        title=lambda p: f"stub {p.sizes}",
        columns=lambda p: [
            "size", "variant", "runs@red", "total@red", "runs@blue",
            "total@blue",
        ],
        lead=2,
    )
    plan = experiment.plan(MICRO_TWICE)
    first, second = MICRO_TWICE.seeds()
    assert [spec.key for spec in plan.specs] == [
        (size, variant, colour, seed)
        for size in (2, 1)
        for variant in ("small", "large")
        for colour in ("red", "blue")
        for seed in (first, second)
    ]
    # the spec function sees the axis values themselves, not their labels
    assert plan.specs[0].kwargs == dict(
        size=2, variant=("small", 1), colour=Colour.RED
    )

    # a run's fake result is its position in the plan, fed back reversed
    fake = {spec.key: index for index, spec in enumerate(plan.specs)}
    result = experiment.reduce(plan, dict(reversed(list(fake.items()))))
    assert result.experiment == "t1_stub"
    assert result.rows[:3] == [
        dict(size=2, variant="small", colour="red", runs=(0, 1), total=2),
        dict(size=2, variant="small", colour="blue", runs=(2, 3), total=10),
        dict(size=2, variant="large", colour="red", runs=(4, 5), total=18),
    ]
    assert len(result.rows) == 8
    assert result.table.title == "stub (2, 1)"
    assert result.table.rows == [
        ["2", "small", "(0, 1)", "2", "(2, 3)", "10"],
        ["2", "large", "(4, 5)", "18", "(6, 7)", "26"],
        ["1", "small", "(8, 9)", "34", "(10, 11)", "42"],
        ["1", "large", "(12, 13)", "50", "(14, 15)", "58"],
    ]


class TestExperimentStructure:
    def test_e1_rows(self):
        result = run_multiple_multicast(
            scale=MICRO, num_hosts=16, concurrency=(1, 2), degree=3,
            payload_flits=16,
        )
        assert len(result.rows) == 2 * len(list(Scheme))
        assert "E1" in result.render()

    def test_e2_skips_oversized_degrees(self):
        result = run_degree_sweep(
            scale=MICRO, num_hosts=16, degrees=(2, 63), payload_flits=16,
        )
        assert {row["degree"] for row in result.rows} == {2}

    def test_e3_rows(self):
        result = run_length_sweep(
            scale=MICRO, num_hosts=16, lengths=(8, 16), degree=3,
        )
        assert {row["length"] for row in result.rows} == {8, 16}

    def test_e4_rows(self):
        result = run_bimodal(
            scale=MICRO, num_hosts=16, loads=(0.1,), degree=3,
        )
        schemes = {row["scheme"] for row in result.rows}
        assert schemes == {"cb-hw", "sw"}

    def test_e5_rows(self):
        result = run_system_size(
            scale=MICRO, sizes=(16,), payload_flits=16,
        )
        workloads = {row["workload"] for row in result.rows}
        assert workloads == {"broadcast", "quarter"}

    def test_e6_rows(self):
        result = run_unicast_baseline(
            scale=MICRO, num_hosts=16, loads=(0.1,),
        )
        assert {row["scheme"] for row in result.rows} == {"cb-hw", "ib-hw"}
        for row in result.rows:
            assert row["throughput"] > 0

    def test_e7_calibration_exact(self):
        result = run_parameters(scale=MICRO, num_hosts=16)
        simulated = result.value("value", parameter="zero_load_simulated")
        model = result.value("value", parameter="zero_load_model")
        assert simulated == model

    def test_a1_rows(self):
        result = run_cb_bandwidth_ablation(
            scale=MICRO, num_hosts=16, bandwidths=(2, 8),
            num_multicasts=2, degree=3, payload_flits=16,
        )
        assert len(result.rows) == 2

    def test_a2_rows(self):
        result = run_routing_mode_ablation(
            scale=MICRO, num_hosts=16, degrees=(3,), payload_flits=16,
        )
        assert {row["mode"] for row in result.rows} == {
            "turnaround", "branch_on_up"
        }

    def test_a3_rows(self):
        result = run_encoding_ablation(scale=MICRO, sizes=(16,), degree=3)
        (row,) = result.rows
        assert row["header_bitstring"] >= 1
        assert row["latency_multiport"] > 0


class TestRunner:
    def test_registry_covers_design_index(self):
        assert set(EXPERIMENTS) == {
            "e1", "e2", "e3", "e4", "e5", "e6", "e7",
            "a1", "a2", "a3", "a4", "a5", "x1", "x2", "x3", "x4",
        }

    def test_cli_single_experiment(self, capsys):
        assert main(["--experiment", "e7", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out
        assert "zero-load" in out

    def test_cli_csv_flag(self, capsys):
        assert main(["--experiment", "e7", "--scale", "quick", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "parameter,value" in out

    def test_cli_profile_out_alone_anchors_the_manifest(self, tmp_path):
        digest = tmp_path / "p.jsonl"
        assert main(
            ["--experiment", "e7", "--scale", "quick",
             "--profile-out", str(digest)]
        ) == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        # it records the recording it anchors on, and the sampling
        # period the runs used rather than the flag's 0
        assert manifest["extras"]["profile_out"] == str(digest)
        assert (
            manifest["extras"]["sample_every"]
            == obs_runtime.DEFAULT_SAMPLE_EVERY
        )

    def test_cli_requires_selection(self):
        with pytest.raises(SystemExit):
            main(["--scale", "quick"])
