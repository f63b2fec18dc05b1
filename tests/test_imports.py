"""Every module of the package uses what it imports, and the package uses
every private helper it defines.  No linter ships with the project, so this
reads each module's syntax tree: a name bound by an import must appear
somewhere else in the module (__init__.py is skipped, because its imports
are the package's public names), and a function, method or class named
with one leading underscore must be named somewhere in the package."""

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


def dead_private_helpers(sources):
    """(module, line, name) for every function, method or class named with
    one leading underscore that the package never names anywhere: not as a
    name, not as an attribute and not in an import.  sources maps module
    names to their text."""
    defined, named = [], set()
    for (module, source) in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and \
                        not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
    return [d for d in defined if d[2] not in named]


def test_dead_private_helpers_are_found():
    sources = {
        "a.py": "def _used():\n    pass\ndef _dead():\n    pass\n"
                "class _Imported:\n    def _method(self):\n        pass\n"
                "    def __init__(self):\n        self._method()\n_used()\n",
        "b.py": "from a import _Imported\nclass _Unused:\n    pass\n",
    }
    assert dead_private_helpers(sources) == [("a.py", 3, "_dead"),
                                             ("b.py", 2, "_Unused")]


def test_package_has_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in pathlib.Path(selfsim.__file__).parent.glob("*.py")}
    assert dead_private_helpers(sources) == []
