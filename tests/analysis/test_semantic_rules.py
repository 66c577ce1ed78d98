"""Cross-module (semantic) rules: the transitive layers of REP001/REP002.

Each positive case seeds a realistic bug into a ``repro``-shaped
fixture tree and asserts the rule catches it; each negative twin makes
the smallest correct change and asserts silence.  The repository gate
(``tests/analysis/test_cli.py::TestRepoGate``) is the standing negative
test over the real sources.
"""

from __future__ import annotations

from tests.analysis.conftest import codes


class TestTransitiveREP001:
    TREE = {
        # syntactically exempt: rng.py is RNG_HOME, so only the
        # reachability layer can flag this
        "repro/sim/rng.py": """
            import random

            def jitter():
                return random.random()
            """,
        "repro/switches/noisy.py": """
            from repro.sim.rng import jitter

            class NoisySwitch:
                def tick(self, now):
                    return self._advance(now)

                def _advance(self, now):
                    return jitter()
            """,
    }

    def test_kernel_reaching_global_rng_flagged(self, lint_files):
        result = lint_files(self.TREE, select=["REP001"])
        assert codes(result) == ["REP001"]
        finding = result.new[0]
        # anchored at the sink call site, in the allowlisted module
        assert finding.path == "repro/sim/rng.py"
        # the full chain is reported, entry point first
        assert finding.chain == (
            "repro.switches.noisy.NoisySwitch.tick",
            "repro.switches.noisy.NoisySwitch._advance",
            "repro.sim.rng.jitter",
            "random.random",
        )
        assert "switches.noisy.NoisySwitch.tick" in finding.message
        assert "sim.rng.jitter" in finding.message

    def test_unreached_rng_helper_is_silent(self, lint_files):
        tree = dict(self.TREE)
        tree["repro/switches/noisy.py"] = """
            class NoisySwitch:
                def tick(self, now):
                    return now
            """
        result = lint_files(tree, select=["REP001"])
        assert codes(result) == []

    def test_chain_follows_the_call_path(self, lint_files):
        # the same sink reached without the helper hop reports the
        # shorter chain: the chain is the path, not a label of the sink
        tree = dict(self.TREE)
        tree["repro/switches/noisy.py"] = """
            from repro.sim.rng import jitter

            class NoisySwitch:
                def tick(self, now):
                    return jitter()
            """
        result = lint_files(tree, select=["REP001"])
        assert result.new[0].chain == (
            "repro.switches.noisy.NoisySwitch.tick",
            "repro.sim.rng.jitter",
            "random.random",
        )


class TestTransitiveREP002:
    TREE = {
        # syntactically exempt: repro.obs may read the wall clock
        "repro/obs/timing.py": """
            import time

            def stamp():
                return time.time()
            """,
        "repro/sim/pump.py": """
            from repro.obs.timing import stamp

            class Pump:
                def tick(self, now):
                    return stamp()
            """,
    }

    def test_kernel_reaching_wall_clock_flagged(self, lint_files):
        result = lint_files(self.TREE, select=["REP002"])
        assert codes(result) == ["REP002"]
        finding = result.new[0]
        assert finding.path == "repro/obs/timing.py"
        assert finding.chain[0] == "repro.sim.pump.Pump.tick"
        assert finding.chain[-1] == "time.time"

    def test_obs_only_wall_clock_is_silent(self, lint_files):
        tree = dict(self.TREE)
        tree["repro/sim/pump.py"] = """
            class Pump:
                def tick(self, now):
                    return now
            """
        result = lint_files(tree, select=["REP002"])
        assert codes(result) == []
