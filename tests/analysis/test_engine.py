"""Engine behaviour: parse errors, discovery, suppression scanning."""

from __future__ import annotations

from repro.analysis.engine import iter_python_files, lint_paths
from repro.analysis.findings import scan_suppressions
from tests.analysis.conftest import codes, lint_snippet

WALLCLOCK = """
    import time

    def stamp():
        return time.time()
    """


class TestEngine:
    def test_identical_lines_are_each_reported(self, tmp_path):
        source = """
            import time

            def a():
                return time.time()

            def b():
                return time.time()
            """
        result = lint_snippet(tmp_path, "repro/sim/twice.py", source)
        assert codes(result) == ["REP002", "REP002"]
        assert len({f.line for f in result.new}) == 2

    def test_parse_error_is_a_rep000_finding(self, tmp_path):
        result = lint_snippet(
            tmp_path, "repro/sim/broken.py", "def broken(:\n"
        )
        assert codes(result) == ["REP000"]
        assert result.exit_code == 1

    def test_parse_error_is_not_suppressible(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "repro/sim/broken.py",
            "def broken(:  # reprolint: ignore[REP000] nope\n",
        )
        assert codes(result) == ["REP000"]

    def test_clean_file_exit_zero(self, tmp_path):
        result = lint_snippet(
            tmp_path, "repro/sim/clean.py", "X = 1\n"
        )
        assert result.new == []
        assert result.exit_code == 0
        assert result.checked_files == 1

    def test_directory_discovery_skips_caches(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "a.py").write_text("A = 1\n")
        pycache = tmp_path / "repro" / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.py").write_text("B = 2\n")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["a.py"]

    def test_results_sorted_by_path_and_line(self, tmp_path):
        lint_snippet(tmp_path, "repro/sim/zz.py", WALLCLOCK)
        result_b = lint_snippet(tmp_path, "repro/sim/aa.py", WALLCLOCK)
        combined = lint_paths([tmp_path], root=tmp_path)
        paths = [f.path for f in combined.new]
        assert paths == sorted(paths)
        assert result_b.new  # both files individually dirty


class TestSuppressionScanner:
    def test_scan_finds_codes_and_reason(self):
        source = "x = 1  # reprolint: ignore[REP001, REP003] legacy rig\n"
        found = scan_suppressions(source)
        assert found[1].codes == {"REP001", "REP003"}
        assert found[1].reason == "legacy rig"

    def test_blanket_ignore_is_not_honoured(self):
        assert scan_suppressions("x = 1  # reprolint: ignore[]\n") == {}
        assert scan_suppressions("x = 1  # noqa\n") == {}
