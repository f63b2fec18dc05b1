"""README's examples run: the library quick start as written, and each
command of the CLI block through cli.main, in process, with exit 0.
Every dotted name and file that README puts in backticks exists, and
README stays a statement of contracts, under 12 KB."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import selfsim
from selfsim import cli, conditions, systems

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {m.name: importlib.import_module("selfsim." + m.name)
           for m in pkgutil.iter_modules(selfsim.__path__)}


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


def code_spans():
    """README's inline code spans, outside the fenced blocks, each with its
    whitespace collapsed."""
    text = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


DOTTED = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
FILE = re.compile(r"[\w.-]+(?:/[\w.-]*)+|[\w-]+\.(?:json|md|py|toml)")


def resolve(name):
    """The object a dotted name names: its head is a module of the package,
    a name one of them holds, or else a module to import; None when any
    part is missing."""
    head, *rest = name.split(".")
    obj = MODULES.get(head)
    if obj is None:
        obj = next((getattr(m, head) for m in MODULES.values()
                    if hasattr(m, head)), None)
    if obj is None:
        try:
            obj = importlib.import_module(head)
        except ImportError:
            return None
    for part in rest:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def test_the_resolver_finds_a_name_and_misses_a_renamed_one():
    assert resolve("conditions.run_report") is conditions.run_report
    assert resolve("DirectedGraph.path") is selfsim.DirectedGraph.path
    assert resolve("conditions._monotone_scoped") is None
    assert resolve("nosuchmodule.name") is None


def test_every_dotted_name_in_readme_exists():
    spans = [s for s in code_spans() if not FILE.fullmatch(s)]
    names = sorted({m.group(1) for m in map(DOTTED.fullmatch, spans) if m})
    assert "systems.MAX_VERIFY_TRIPLES" in names
    assert [n for n in names if resolve(n) is None] == []


def test_every_file_named_in_readme_exists():
    files = sorted(s for s in code_spans() if FILE.fullmatch(s))
    assert "tests/conftest.py" in files
    assert [f for f in files if not (ROOT / f).exists()] == []


def test_readme_is_under_12_kb():
    assert len((ROOT / "README.md").read_bytes()) < 12 * 1024
