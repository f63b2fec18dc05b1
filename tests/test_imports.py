"""Every module of the package uses what it imports.  No linter ships with
the project, so this reads each module's syntax tree: a name bound by an
import must appear somewhere else in the module.  __init__.py is skipped,
because its imports are the package's public names."""

import ast
import pathlib

import pytest

import selfsim

MODULES = sorted(p for p in pathlib.Path(selfsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for (name, line) in bound.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = "import os\nfrom a import b, c as d\nfrom . import e\nd(e.f)\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
