"""Cross-module (semantic) rules: transitive REP001/REP002, REP010-012.

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


class TestREP007InheritedTick:
    """``tick`` lives on a skeleton class; subclasses plug in phases."""

    SKELETON = """
        from repro.switches.ports import PORTS_OF

        class SwitchBase:
            def tick(self, now):
                self._receive(now)
                self._phases(now)

            def _receive(self, now):
                for port in PORTS_OF[self._rx_pending]:
                    self._accept(self.in_links[port].receive_span(now))

            def _phases(self, now):
                raise NotImplementedError
        """

    def tree(self, phases_body):
        return {
            "repro/switches/base.py": self.SKELETON,
            "repro/switches/central.py": f"""
                from repro.switches.base import SwitchBase

                class CentralSwitch(SwitchBase):
                    def _phases(self, now):
                        for link in self.in_links:
                            {phases_body}

                    def _debug_dump(self, now):
                        return [l.receive_span(now) for l in self.in_links]
                """,
        }

    def test_unguarded_drain_in_an_overridden_phase_flagged(
        self, lint_files
    ):
        result = lint_files(
            self.tree("self._accept(link.receive_span(now))"),
            select=["REP007"],
        )
        assert codes(result) == ["REP007"]
        finding = result.new[0]
        assert finding.path == "repro/switches/central.py"
        assert "receive_span" in finding.message

    def test_guarded_phase_and_unreached_method_are_silent(
        self, lint_files
    ):
        result = lint_files(
            self.tree(
                "if link.pending_arrival(now): "
                "self._accept(link.receive_span(now))"
            ),
            select=["REP007"],
        )
        assert codes(result) == []

    def test_shared_skeleton_method_is_reported_once(self, lint_files):
        tree = self.tree("pass")
        tree["repro/switches/base.py"] = self.SKELETON.replace(
            "PORTS_OF[self._rx_pending]", "range(self.num_ports)"
        )
        tree["repro/switches/input.py"] = """
            from repro.switches.base import SwitchBase

            class InputSwitch(SwitchBase):
                def _phases(self, now):
                    pass
            """
        result = lint_files(tree, select=["REP007"])
        assert [(f.code, f.path) for f in result.new] == [
            ("REP007", "repro/switches/base.py")
        ]


class TestREP010LostWake:
    BUGGY = {
        "repro/host/device.py": """
            from repro.sim.component import Component

            class Device(Component):
                def __init__(self, env):
                    super().__init__(env)
                    self._queue = []

                def tick(self, now):
                    if self._queue:
                        self._queue.pop()

                def enqueue(self, item):
                    self._queue.append(item)
            """,
    }

    def test_mutation_without_wake_flagged(self, lint_files):
        result = lint_files(self.BUGGY, select=["REP010"])
        assert codes(result) == ["REP010"]
        finding = result.new[0]
        assert "Device.enqueue()" in finding.message
        assert "_queue" in finding.message

    def test_wake_now_discharges_the_obligation(self, lint_files):
        tree = {
            "repro/host/device.py": """
                from repro.sim.component import Component

                class Device(Component):
                    def tick(self, now):
                        pass

                    def enqueue(self, item):
                        self._queue.append(item)
                        self.wake_now()
                """,
        }
        result = lint_files(tree, select=["REP010"])
        assert codes(result) == []

    def test_wake_through_helper_counts(self, lint_files):
        tree = {
            "repro/host/device.py": """
                from repro.sim.component import Component

                class Device(Component):
                    def tick(self, now):
                        pass

                    def enqueue(self, item):
                        self._queue.append(item)
                        self._nudge()

                    def _nudge(self):
                        self.wake_now()
                """,
        }
        result = lint_files(tree, select=["REP010"])
        assert codes(result) == []

    def test_skeleton_helper_reached_through_a_subclass_phase_is_exempt(
        self, lint_files
    ):
        # the helper is on no tick closure in the skeleton's own view —
        # only the phase a subclass plugs in calls it
        tree = {
            "repro/switches/base.py": """
                from repro.sim.component import Component

                class Skeleton(Component):
                    def tick(self, now):
                        self._phases(now)

                    def _phases(self, now):
                        raise NotImplementedError

                    def _pop_front(self, port):
                        self._route_pending |= 1 << port
                """,
            "repro/switches/central.py": """
                from repro.switches.base import Skeleton

                class Central(Skeleton):
                    def _phases(self, now):
                        self._pop_front(0)
                """,
        }
        assert codes(lint_files(tree, select=["REP010"])) == []
        # with no subclass phase reaching it, the obligation is back
        tree["repro/switches/central.py"] = """
            from repro.switches.base import Skeleton

            class Central(Skeleton):
                def _phases(self, now):
                    pass
            """
        result = lint_files(tree, select=["REP010"])
        assert codes(result) == ["REP010"]
        assert "Skeleton._pop_front()" in result.new[0].message

    def test_non_component_class_is_exempt(self, lint_files):
        tree = {
            "repro/host/plain.py": """
                class Plain:
                    def enqueue(self, item):
                        self._queue.append(item)
                """,
        }
        result = lint_files(tree, select=["REP010"])
        assert codes(result) == []

    def test_tick_closure_is_exempt(self, lint_files):
        tree = {
            "repro/host/device.py": """
                from repro.sim.component import Component

                class Device(Component):
                    def tick(self, now):
                        self._drain()

                    def _drain(self):
                        self._queue.pop()
                        self._credits += 1
                """,
        }
        result = lint_files(tree, select=["REP010"])
        assert codes(result) == []


class TestREP012SchemaDrift:
    REGISTRY = """
        SCHEMA_RUN = "repro.run/1"

        SCHEMA_FIELDS = {
            SCHEMA_RUN: ("run", "event"),
        }
        """

    def test_missing_required_field_flagged(self, lint_files):
        tree = {
            "repro/obs/sinks.py": self.REGISTRY,
            "repro/experiments/writer.py": """
                from repro.obs.sinks import SCHEMA_RUN

                def emit(writer, run):
                    writer.write({"schema": SCHEMA_RUN, "run": run})
                """,
        }
        result = lint_files(tree, select=["REP012"])
        assert codes(result) == ["REP012"]
        finding = result.new[0]
        assert finding.path == "repro/experiments/writer.py"
        assert "'repro.run/1'" in finding.message
        assert "event" in finding.message

    def test_unregistered_tag_flagged(self, lint_files):
        tree = {
            "repro/obs/sinks.py": self.REGISTRY,
            "repro/experiments/writer.py": """
                def emit(writer, run):
                    writer.write(
                        {"schema": "repro.bogus/1", "run": run}
                    )
                """,
        }
        result = lint_files(tree, select=["REP012"])
        assert codes(result) == ["REP012"]
        assert "not registered" in result.new[0].message

    def test_complete_record_is_silent(self, lint_files):
        tree = {
            "repro/obs/sinks.py": self.REGISTRY,
            "repro/experiments/writer.py": """
                from repro.obs.sinks import SCHEMA_RUN

                def emit(writer, run):
                    writer.write(
                        {
                            "schema": SCHEMA_RUN,
                            "run": run,
                            "event": "start",
                        }
                    )
                """,
        }
        result = lint_files(tree, select=["REP012"])
        assert codes(result) == []

    def test_spread_record_only_tag_checked(self, lint_files):
        tree = {
            "repro/obs/sinks.py": self.REGISTRY,
            "repro/experiments/writer.py": """
                from repro.obs.sinks import SCHEMA_RUN

                def emit(writer, fields):
                    writer.write({"schema": SCHEMA_RUN, **fields})
                """,
        }
        result = lint_files(tree, select=["REP012"])
        assert codes(result) == []

    def test_schemaless_record_left_to_rep006(self, lint_files):
        tree = {
            "repro/obs/sinks.py": self.REGISTRY,
            "repro/experiments/writer.py": """
                def emit(writer, run):
                    writer.write({"run": run})
                """,
        }
        result = lint_files(tree, select=["REP012"])
        assert codes(result) == []
