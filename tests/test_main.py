"""``python -m repro``: the front door dispatches to its subcommands."""

from __future__ import annotations

from repro.__main__ import main as repro_main

COMMANDS = ("demo", "inspect", "profile", "store")


class TestMainDispatch:
    def test_unknown_subcommand_exits_two_with_usage(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        for command in COMMANDS:
            assert command in err

    def test_top_level_help_lists_all_subcommands(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert command in out

    def test_lint_is_no_longer_a_subcommand(self, capsys):
        assert repro_main(["lint"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'lint'" in err
        assert "usage: python -m repro" in err


def test_the_demo_table_is_the_same_on_a_pool(capsys):
    """The demo's three cases are a plan: on workers each spec must
    pickle (a module-level ``fn``) and give the serial table."""
    assert repro_main(["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert repro_main(["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
