"""Configuration fingerprints."""

from __future__ import annotations

from repro.core.schemes import SwitchArchitecture
from repro.network.config import SimulationConfig, describe


class TestDescribe:
    def test_contains_every_behavioural_knob(self):
        text = describe(SimulationConfig())
        for fragment in (
            "N=64", "arity=4", "topo=bmin", "arch=central_buffer",
            "enc=bitstring", "mode=turnaround", "repl=asynchronous",
            "cb=2048/8", "sw=40/40", "seed=1",
        ):
            assert fragment in text

    def test_changes_show_up(self):
        base = describe(SimulationConfig())
        changed = describe(
            SimulationConfig(
                switch_architecture=SwitchArchitecture.INPUT_BUFFER,
                seed=9,
            )
        )
        assert base != changed
        assert "arch=input_buffer" in changed
        assert "seed=9" in changed

    def test_identical_configs_identical_fingerprints(self):
        assert describe(SimulationConfig()) == describe(SimulationConfig())
