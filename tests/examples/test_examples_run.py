"""Example scripts, and the code the documents show, must run end to end.

The fast examples run in-process via runpy (so coverage and failures are
ordinary test failures); the slower sweep examples are only checked for
importability and a main() entry point.  The ``python`` blocks of
README.md's quickstart and DESIGN.md's API sketch are executed as written.
"""

from __future__ import annotations

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"

FAST = ["quickstart.py", "worm_anatomy.py", "irregular_cluster.py"]
SLOW = [
    "mpi_collectives.py",
    "dsm_invalidation.py",
    "barrier_and_reduce.py",
    "capacity_planning.py",
]


class TestExamplesExist:
    def test_at_least_seven_examples(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 7

    def test_inventory_is_current(self):
        names = {path.name for path in EXAMPLES.glob("*.py")}
        assert names == set(FAST) | set(SLOW)

    @pytest.mark.parametrize("name", FAST + SLOW)
    def test_has_main_and_docstring(self, name):
        source = (EXAMPLES / name).read_text()
        assert '"""' in source.split("\n", 2)[2 if source.startswith("#!") else 0], (
            f"{name} lacks a module docstring"
        )
        assert "def main()" in source
        assert '__name__ == "__main__"' in source


@pytest.mark.parametrize("name", FAST)
def test_fast_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100, f"{name} produced no meaningful output"


@pytest.mark.parametrize(
    "document, heading",
    [("README.md", "## Quickstart"), ("DESIGN.md", "## 5. Public API sketch")],
)
def test_documented_code_runs(document, heading, capsys):
    text = (ROOT / document).read_text()
    section = text[text.index(heading) + len(heading):].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert blocks, f"{document} {heading!r} shows no python"
    for block in blocks:
        exec(compile(block, f"{document}:{heading}", "exec"), {})
    assert capsys.readouterr().out.strip()
