"""README's examples run: the library quick start as written, and each
command of the CLI block through cli.main, in process, with exit 0."""

import pathlib
import re
import shlex

import pytest

from selfsim import cli, conditions, systems

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    """The bodies of README's fenced blocks in the given language."""
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, re.M | re.S)


def cli_commands():
    """The argument lists of the CLI block: the sh block of selfsim
    commands, continuation lines joined and comments dropped."""
    (block,) = [b for b in blocks("sh") if b.startswith("selfsim ")]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", "").splitlines()]


COMMANDS = cli_commands()


def test_the_cli_block_is_found():
    assert len(COMMANDS) == 14
    assert all(argv[0] == "selfsim" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:3])
                                                for a in COMMANDS])
def test_each_cli_example_exits_0(capsys, argv):
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err


def test_the_library_quick_start_runs(capsys):
    (block,) = [b for b in blocks("python") if "run_report" in b]
    exec(block, {})
    out = capsys.readouterr().out
    system = systems.load_fixture("four_loop_z2")
    text = conditions.report_text(conditions.run_report(
        system.action, name=system.name))
    assert out.startswith(text + "\n")
