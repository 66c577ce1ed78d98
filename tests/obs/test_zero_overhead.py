"""Observability must be inert: same numbers with it off, on, or after.

The golden snapshots in ``tests/experiments/golden/`` pin every
experiment's quick-scale rows.  Here one cheap experiment runs with full
recording enabled (metrics + trace + sampling) and must still match its
snapshot bit-for-bit; a run after disabling must match again.  This is
the enforcement teeth behind the layer's contract (docs/observability.md):
instrumentation observes, it never steers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.schemes import MulticastScheme
from repro.experiments.common import QUICK
from repro.experiments.runner import EXPERIMENTS
from repro.network.builder import build_network
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation
from repro.obs import runtime
from repro.traffic.multicast import SingleMulticast

GOLDEN_DIR = Path(__file__).parent.parent / "experiments" / "golden"

#: the cheapest golden-pinned experiment (quick scale, ~1s serial)
EXPERIMENT = "x4"


def _golden_rows():
    return json.loads((GOLDEN_DIR / f"{EXPERIMENT}.json").read_text())


def _canonical(rows):
    return json.loads(json.dumps(rows))


class TestTablesAreUnchanged:
    def test_enabled_then_disabled_matches_golden(self, tmp_path):
        golden = _golden_rows()
        with runtime.enabled(
            metrics_out=str(tmp_path / "m.jsonl"),
            trace_out=str(tmp_path / "t.jsonl"),
            sample_every=100,
        ):
            recorded = EXPERIMENTS[EXPERIMENT](QUICK, jobs=1)
        assert _canonical(recorded.rows) == golden
        # recording actually happened — this was not a vacuous pass
        assert (tmp_path / "m.jsonl").stat().st_size > 0
        assert (tmp_path / "t.jsonl").stat().st_size > 0

        plain = EXPERIMENTS[EXPERIMENT](QUICK, jobs=1)
        assert _canonical(plain.rows) == golden
        assert plain.table.render() == recorded.table.render()


class TestSimulationIsUnchanged:
    def test_summary_identical_across_states(self, tmp_path):
        config = SimulationConfig(num_hosts=16)

        def workload():
            return SingleMulticast(
                source=0, degree=4, payload_flits=16,
                scheme=MulticastScheme.HARDWARE,
            )

        before = run_simulation(config, workload())
        with runtime.enabled(
            metrics_out=str(tmp_path / "m.jsonl"), sample_every=10
        ):
            during = run_simulation(config, workload())
        after = run_simulation(config, workload())
        assert before.summary() == during.summary() == after.summary()
        assert before.cycles == during.cycles == after.cycles


class TestDisabledPathIsNull:
    def test_default_build_uses_shared_null_registry(self):
        network = build_network(SimulationConfig(num_hosts=16))
        assert network.metrics is None
        for switch in network.switches:
            assert switch.metrics is None
            assert switch.tracer is None
        for component in (
            *network.switches, *network.interfaces, *network.nodes
        ):
            assert component._obs is False
        # off is absent: an instrument call that skips its guard raises
        with pytest.raises(AttributeError):
            network.switches[0]._c_forwarded.inc()
