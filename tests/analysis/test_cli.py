"""CLI behaviour: formats, exit codes, the JSON schema, the repo gate."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import LINT_JSON_SCHEMA, LINT_SCHEMA, main

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def _write(tmp_path: Path, rel: str, source: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "repro/sim/clean.py", "X = 1\n")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "repro/sim/bad.py", DIRTY)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out

    def test_missing_path_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_unknown_rule_code_exits_two(self, tmp_path):
        _write(tmp_path, "repro/sim/clean.py", "X = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--select", "REP999"])
        assert excinfo.value.code == 2

    def test_unknown_rule_message_names_code_and_catalog(
        self, tmp_path, capsys
    ):
        _write(tmp_path, "repro/sim/clean.py", "X = 1\n")
        with pytest.raises(SystemExit):
            main([str(tmp_path), "--select", "REP999,REP001"])
        err = capsys.readouterr().err
        assert "REP999" in err
        assert "available" in err
        assert "REP001" in err

    def test_unknown_rule_raises_from_the_api_too(self):
        from repro.analysis.rules import UnknownRuleError, all_rules

        with pytest.raises(UnknownRuleError, match="REP999"):
            all_rules(["REP999"])
        with pytest.raises(ValueError):
            all_rules([])

    def test_select_runs_only_requested_rules(self, tmp_path, capsys):
        _write(tmp_path, "repro/sim/bad.py", DIRTY)
        assert main(
            [str(tmp_path), "--select", "REP001"]
        ) == 0
        capsys.readouterr()

    def test_list_rules_names_all_twelve(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line[:6] for line in out.splitlines() if line[:3] == "REP"]
        # codes 5-14 are retired; codes are never renumbered
        assert listed == ["REP001", "REP002", "REP003", "REP004"]


class TestJsonFormat:
    def _lint_json(self, tmp_path, capsys, *extra):
        code = main([str(tmp_path), "--format", "json",
                     *extra])
        payload = json.loads(capsys.readouterr().out)
        return code, payload

    def test_output_matches_documented_schema(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _write(tmp_path, "repro/sim/bad.py", DIRTY)
        _write(tmp_path, "repro/sim/clean.py", "X = 1\n")
        code, payload = self._lint_json(tmp_path, capsys)
        assert code == 1
        jsonschema.validate(payload, LINT_JSON_SCHEMA)
        assert payload["schema"] == LINT_SCHEMA
        assert payload["counts"]["new"] == 1
        assert payload["findings"][0]["code"] == "REP002"

    def test_clean_output_matches_schema_too(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _write(tmp_path, "repro/sim/clean.py", "X = 1\n")
        code, payload = self._lint_json(tmp_path, capsys)
        assert code == 0
        jsonschema.validate(payload, LINT_JSON_SCHEMA)
        assert payload["findings"] == []

    def test_finding_paths_are_relative_to_cwd(
        self, tmp_path, capsys, monkeypatch
    ):
        _write(tmp_path, "repro/sim/bad.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        code, payload = self._lint_json(Path("repro"), capsys)
        assert code == 1
        assert payload["findings"][0]["path"] == "repro/sim/bad.py"


class TestGithubFormat:
    def test_one_annotation_per_finding(self, tmp_path, capsys):
        _write(tmp_path, "repro/sim/bad.py", DIRTY)
        code = main(
            [str(tmp_path), "--format", "github"]
        )
        assert code == 1
        out = capsys.readouterr().out
        lines = [
            line for line in out.splitlines()
            if line.startswith("::error ")
        ]
        assert len(lines) == 1  # the wall-clock call
        assert "title=reprolint REP002" in lines[0]
        assert "line=" in lines[0] and "col=" in lines[0]
        # property values escape their separators
        assert "file=" in lines[0]
        assert "1 file(s) checked" in out

    def test_clean_tree_emits_no_annotations(self, tmp_path, capsys):
        _write(tmp_path, "repro/sim/clean.py", "X = 1\n")
        code = main(
            [str(tmp_path), "--format", "github"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "::error" not in out

    def test_messages_escape_newlines_and_percent(self):
        from repro.analysis.cli import (
            _gh_escape_data,
            _gh_escape_property,
        )

        assert _gh_escape_data("a%b\nc\rd") == "a%25b%0Ac%0Dd"
        assert _gh_escape_property("a:b,c") == "a%3Ab%2Cc"


class TestRepoGate:
    def test_repository_lints_clean(self, capsys, monkeypatch):
        """The regression gate: the tree must satisfy its own linter."""
        monkeypatch.chdir(REPO_ROOT)
        exit_code = main(["src"])
        out = capsys.readouterr().out
        assert exit_code == 0, f"reprolint found new violations:\n{out}"


class TestDocsCatalog:
    def test_docs_table_matches_rule_catalog(self):
        """docs/static-analysis.md's catalogue table carries exactly
        the registered codes with their exact summary strings."""
        import re

        from repro.analysis.rules import rule_catalog

        text = (REPO_ROOT / "docs" / "static-analysis.md").read_text(
            encoding="utf-8"
        )
        rows = dict(
            re.findall(r"^\| (REP\d{3}) +\| (.+?) \|$", text, re.M)
        )
        catalog = {code: summary for code, summary, _ in rule_catalog()}
        assert rows == catalog

    def test_every_rule_has_a_docs_section(self):
        from repro.analysis.rules import rule_catalog

        text = (REPO_ROOT / "docs" / "static-analysis.md").read_text(
            encoding="utf-8"
        )
        for code, _, _ in rule_catalog():
            assert f"### {code} — " in text, f"{code} undocumented"


class TestMainDispatch:
    def test_unknown_subcommand_exits_two_with_usage(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        for command in ("demo", "inspect", "lint"):
            assert command in err

    def test_top_level_help_lists_all_subcommands(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("demo", "inspect", "lint"):
            assert command in out

    def test_lint_subcommand_dispatches(self, capsys, monkeypatch):
        from repro.__main__ import main as repro_main

        monkeypatch.chdir(REPO_ROOT)
        assert repro_main(["lint", "src/repro/sim"]) == 0
        assert "file(s) checked" in capsys.readouterr().out
