"""ProjectIndex construction: imports, call graph, determinism."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.project import ProjectIndex, repro_roots
from repro.analysis.source import SourceModule

REPO_ROOT = Path(__file__).resolve().parents[2]


def build_index(tmp_path, files):
    """Write ``repro/...``-shaped fixture files and index them."""
    sources = []
    for rel_path, source in files.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        sources.append(
            SourceModule.parse(target, display_path=rel_path)
        )
    return ProjectIndex.build(sources)


class TestImportResolution:
    def test_import_cycle_tolerated(self, tmp_path):
        project = build_index(
            tmp_path,
            {
                "repro/sim/a.py": """
                    from repro.sim.b import beta

                    def alpha():
                        return beta()
                    """,
                "repro/sim/b.py": """
                    from repro.sim.a import alpha

                    def beta():
                        return alpha()
                    """,
            },
        )
        assert set(project.modules) == {"repro.sim.a", "repro.sim.b"}
        chains = project.reachable_from(["repro.sim.a.alpha"])
        assert "repro.sim.b.beta" in chains
        # the back edge closes the cycle without hanging the BFS
        assert chains["repro.sim.b.beta"] == (
            "repro.sim.a.alpha", "repro.sim.b.beta"
        )

    def test_relative_import_single_level(self, tmp_path):
        project = build_index(
            tmp_path,
            {
                "repro/switches/__init__.py": "",
                "repro/switches/a.py": """
                    from .b import helper

                    def use():
                        return helper()
                    """,
                "repro/switches/b.py": """
                    def helper():
                        return 1
                    """,
            },
        )
        bindings = project.modules["repro.switches.a"].bindings
        assert bindings["helper"] == "repro.switches.b.helper"
        chains = project.reachable_from(["repro.switches.a.use"])
        assert "repro.switches.b.helper" in chains

    def test_relative_import_walks_up_packages(self, tmp_path):
        project = build_index(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim/__init__.py": "",
                "repro/sim/util.py": """
                    def tool():
                        return 0
                    """,
                "repro/switches/__init__.py": "",
                "repro/switches/c.py": """
                    from ..sim.util import tool

                    def use():
                        return tool()
                    """,
            },
        )
        bindings = project.modules["repro.switches.c"].bindings
        assert bindings["tool"] == "repro.sim.util.tool"

    def test_package_reexport_canonicalizes(self, tmp_path):
        project = build_index(
            tmp_path,
            {
                "repro/sim/__init__.py": """
                    from repro.sim.impl import thing
                    """,
                "repro/sim/impl.py": """
                    def thing():
                        return 7
                    """,
                "repro/sim/user.py": """
                    from repro.sim import thing

                    def use():
                        return thing()
                    """,
            },
        )
        assert (
            project.canonicalize("repro.sim.thing")
            == "repro.sim.impl.thing"
        )
        chains = project.reachable_from(["repro.sim.user.use"])
        assert "repro.sim.impl.thing" in chains


class TestCallGraph:
    TREE = {
        "repro/switches/base.py": """
            class Base:
                def entry(self):
                    return self.hook()

                def hook(self):
                    return 0
            """,
        "repro/switches/sub.py": """
            from repro.switches.base import Base

            class Sub(Base):
                def hook(self):
                    return 1
            """,
    }

    def test_self_call_reaches_descendant_overrides(self, tmp_path):
        """The global graph is sound: an entry on the base class may
        execute any override, so both hooks are reachable."""
        project = build_index(tmp_path, self.TREE)
        chains = project.reachable_from(
            ["repro.switches.base.Base.entry"]
        )
        assert "repro.switches.base.Base.hook" in chains
        assert "repro.switches.sub.Sub.hook" in chains

    def test_diamond_resolves_in_python_order(self, tmp_path):
        """A mixin sharing a base with its sibling (the shape of
        ``repro.reference``): the sibling's override must win over the
        shared base, as in python's C3 order — depth-first would reach
        the base through the mixin first."""
        tree = dict(self.TREE)
        tree["repro/reference.py"] = """
            from repro.switches.base import Base
            from repro.switches.sub import Sub

            class Mixin(Base):
                def entry(self):
                    return self.hook() + 1

            class Leaf(Mixin, Sub):
                pass
            """
        project = build_index(tmp_path, tree)
        assert project.mro("repro.reference.Leaf") == (
            "repro.reference.Leaf",
            "repro.reference.Mixin",
            "repro.switches.sub.Sub",
            "repro.switches.base.Base",
        )

    def test_class_call_reaches_init(self, tmp_path):
        project = build_index(
            tmp_path,
            {
                "repro/sim/factory.py": """
                    class Widget:
                        def __init__(self):
                            self.x = 1

                    def make():
                        return Widget()
                    """,
            },
        )
        chains = project.reachable_from(["repro.sim.factory.make"])
        assert "repro.sim.factory.Widget.__init__" in chains

    def test_descendants_cross_module(self, tmp_path):
        project = build_index(tmp_path, self.TREE)
        assert project.descendants("repro.switches.base.Base") == (
            "repro.switches.sub.Sub",
        )


class TestReproRoots:
    def test_innermost_repro_dirs(self, tmp_path):
        inner = tmp_path / "repro" / "sim"
        inner.mkdir(parents=True)
        (inner / "x.py").write_text("", encoding="utf-8")
        roots = repro_roots([inner / "x.py"])
        assert roots == [tmp_path / "repro"]


class TestDeterminism:
    def test_repo_lint_is_byte_identical_across_runs(self, capsys):
        """Two full semantic runs over ``src/repro`` produce identical
        JSON — index construction and chain ordering are
        deterministic."""
        import os

        from repro.analysis.cli import main

        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            outputs = []
            for _ in range(2):
                main(["src/repro", "--format", "json"])
                outputs.append(capsys.readouterr().out)
        finally:
            os.chdir(cwd)
        assert outputs[0] == outputs[1]
