"""Every module of the package uses what it imports, and the package uses
every helper it defines.  No linter ships with the project, so this reads
each module's syntax tree: a name bound by an import must appear somewhere
else in the module (__init__.py is skipped, because its imports are the
package's public names); a function, method or class named with one
leading underscore must be used somewhere in the package (a method only
through an attribute or an import, never through a local of its name);
and so must a public function or method, unless __init__ exports it, it
is a cmd_* handler of the CLI, or UNCALLED_PUBLIC names it with a reason.  Every
parameter but self and cls is read by the body of its function, unless
UNREAD_PARAMETERS names the function with a reason.  Only systems.py
writes JSON documents: no other module calls json.dump, or json.dumps with
an indent.  Each format has one home: only graphs.py holds DOT text, only
systems.py defines or imports _entries, the listing of a file's tables,
and no module imports importlib.resources, so the bundled examples are
read as files, by systems.load_system.  Only graphs.py orders a graph: no
other module sorts vertices, edges or the edges a vertex receives, which
a graph keeps sorted.  No
module imports dataclasses: the records are named tuples, so importing
the command line loads neither dataclasses nor inspect.  The benchmark's
tracer patches methods by name, so each method it lists is a function of
its class's own namespace, and conditions.BASE_CHECKS stays a list of
(id, function) pairs.  The tracer keys its wrappers by function object, so
no module binds a function it defines under a second module-level name."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

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


def unnamed_definitions(sources, wanted):
    """(module, line, name) for every definition node with wanted(node)
    whose name the package never uses: as an attribute or in an import (so
    an export from __init__ counts), or, unless the definition is a method
    (a function of a class body), as a name that is read.  A name that is
    bound, such as a local variable, never counts, so a local of the same
    name cannot hide a dead method.  sources maps module names to their
    text."""
    defined, read, reached = [], set(), set()
    for (module, source) in sorted(sources.items()):
        tree = ast.parse(source)
        methods = {id(child) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name.split(".")[-1])
            elif wanted(node):
                defined.append((module, node.lineno, node.name,
                                id(node) in methods))
    return [(module, line, name)
            for (module, line, name, method) in defined
            if name not in reached and (method or name not in read)]


def dead_private_helpers(sources):
    """Functions, methods and classes named with one leading underscore."""
    return unnamed_definitions(sources, lambda node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__"))


def dead_public_functions(sources):
    """Public functions and methods, CLI handlers (cmd_*) aside."""
    return unnamed_definitions(sources, lambda node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith(("_", "cmd_")))


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


# Public functions the package itself never calls, each with the reason it
# stays.  A name that gains a caller, or leaves, must leave this list too.
UNCALLED_PUBLIC = {
    "boundary_points_from": "enumerates boundary points for the germ tests "
                            "and the benchmark's query workload",
    "elements_up_to": "the literal triple enumeration that the verifier "
                      "oracles and count_up_to's test compare with",
    "fixed_by": "the paper's fixedness decision, named in README; no CLI "
                "operation exposes it yet",
    "in_S00": "the paper's S00 membership; no CLI operation exposes it yet",
}


def test_dead_public_functions_are_found():
    sources = {
        "__init__.py": "from .a import exported, faithful\n",
        "a.py": "def exported():\n    pass\ndef called():\n    pass\n"
                "def dead():\n    pass\ndef cmd_x(args):\n    called()\n"
                "def _private():\n    pass\n"
                "class K:\n    def method(self):\n        pass\n"
                "class G:\n    def nonunits(self):\n        pass\n"
                "def faithful(gpd):\n    nonunits = gpd.units()\n"
                "    return nonunits\n",
    }
    assert dead_public_functions(sources) == [("a.py", 5, "dead"),
                                              ("a.py", 12, "method"),
                                              ("a.py", 15, "nonunits")]


def test_package_names_every_public_function_it_keeps():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in pathlib.Path(selfsim.__file__).parent.glob("*.py")}
    found = sorted(d[2] for d in dead_public_functions(sources))
    assert found == sorted(UNCALLED_PUBLIC)


def unread_parameters(source):
    """(line, qualified name, parameter) for every parameter of a function
    or method, self and cls aside, that its body never reads.  A read in a
    nested function counts; default values and decorators do not."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, args = prefix + child.name, child.args
                params = [a.arg for a in args.posonlyargs + args.args
                          + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                out.extend((child.lineno, name, p) for p in params
                           if p not in ("self", "cls") and p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(out)


def test_unread_parameters_are_found():
    source = ("def f(a, b, *c, d=1, **e):\n    return a + sum(c)\n"
              "class K:\n    def m(self, x):\n        def inner(y):\n"
              "            return x\n        return inner\n"
              "    @classmethod\n    def k(cls, z=None):\n        z = 1\n")
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "d"), (1, "f", "e"),
        (5, "K.m.inner", "y"), (9, "K.k", "z")]


# Functions that keep a parameter unread, each with the reason.
UNREAD_PARAMETERS = {
    "BehavioralModel.mul": "refuses without reading its arguments, to keep "
                           "the Groupoid interface",
    "BehavioralModel.inv": "refuses without reading its argument, to keep "
                           "the Groupoid interface",
}


def test_package_reads_every_parameter():
    found = {(path.name,) + u for path in MODULES
             for u in unread_parameters(path.read_text(encoding="utf-8"))}
    assert sorted({name for (_, _, name, _) in found}) == \
        sorted(UNREAD_PARAMETERS), sorted(found)


def json_document_writers(source):
    """(line, call) for every call of json.dump, and of json.dumps with an
    indent keyword, whether through the module (under any name) or through
    a name imported from it."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update((alias.asname or alias.name, alias.name)
                         for alias in node.names)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            called = func.attr
        elif isinstance(func, ast.Name) and func.id in names:
            called = names[func.id]
        else:
            continue
        if called == "dump" or (called == "dumps" and any(
                k.arg == "indent" for k in node.keywords)):
            out.append((node.lineno, "json." + called))
    return sorted(out)


def test_json_document_writers_are_found():
    source = ("import json\nimport json as j\nfrom json import dump, dumps as d\n"
              "json.dump(x, fh)\nj.dumps(x, indent=2)\ndump(x, fh)\n"
              "d(x, indent=None)\njson.dumps(x, sort_keys=True)\n"
              "other.dump(x)\n")
    assert json_document_writers(source) == [
        (4, "json.dump"), (5, "json.dumps"), (6, "json.dump"),
        (7, "json.dumps")]


def test_only_systems_writes_json_documents():
    """Every JSON the CLI prints and every file save_system writes comes
    from systems.json_text; a compact json.dumps, as for a witness, stays."""
    found = {(path.name,) + w for path in MODULES if path.name != "systems.py"
             for w in json_document_writers(path.read_text(encoding="utf-8"))}
    assert sorted(found) == []


def dot_text_constants(source):
    """(line, text) for every string constant holding DOT text, a
    "digraph " or " -> ", docstrings and other bare string statements
    aside."""
    tree = ast.parse(source)
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and id(node) not in bare
                  and isinstance(node.value, str)
                  and ("digraph " in node.value or " -> " in node.value))


def test_dot_text_constants_are_found():
    source = ('"""rows g -> h, a digraph {"""\n'
              'x = "digraph %s {"\ny = "  %s -> %s;"\nz = "a->b"\n'
              'def f():\n    "the arrows g -> h"\n    return f"{x} -> y"\n')
    assert dot_text_constants(source) == [
        (2, "digraph %s {"), (3, "  %s -> %s;"), (7, " -> y")]


def test_only_graphs_holds_dot_text():
    """graphs.dot is the one DOT writer; every picture prints through it."""
    found = {(path.name,) + c for path in MODULES if path.name != "graphs.py"
             for c in dot_text_constants(path.read_text(encoding="utf-8"))}
    assert sorted(found) == []


def entries_homes(source):
    """(line, how) for every def of _entries and every import of it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "_entries":
            out.append((node.lineno, "def"))
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, "import") for alias in node.names
                       if alias.name == "_entries")
    return sorted(out)


def test_entries_homes_are_found():
    source = ("from .groupoids import _rows, _entries as e\n"
              "def _entries(rows):\n    pass\nclass K:\n"
              "    def _entries(self):\n        pass\n_entries2 = 1\n")
    assert entries_homes(source) == [(1, "import"), (2, "def"), (5, "def")]


def test_only_systems_lists_tables():
    """A file's tables are listed by systems._entries alone."""
    found = [(path.name, how) for path in MODULES
             for (_, how) in entries_homes(path.read_text(encoding="utf-8"))]
    assert found == [("systems.py", "def")]


def resources_imports(source):
    """(line, dotted name) for every import of importlib.resources or of a
    name in it, relative imports aside."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module + "." + alias.name for alias in node.names]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if (name + ".").startswith("importlib.resources."))
    return sorted(out)


def test_resources_imports_are_found():
    source = ("import importlib\nimport importlib.resources as r\n"
              "from importlib import import_module, resources\n"
              "from importlib.resources import files\n"
              "from .importlib import resources\n"
              "def f():\n    import importlib.resources.abc\n")
    assert resources_imports(source) == [
        (2, "importlib.resources"), (3, "importlib.resources"),
        (4, "importlib.resources.files"), (7, "importlib.resources.abc")]


def test_no_module_imports_importlib_resources():
    """Importing it loads inspect on Python 3.12 and later, which the
    command line must not load."""
    found = {(path.name,) + i for path in MODULES
             for i in resources_imports(path.read_text(encoding="utf-8"))}
    assert sorted(found) == []


def graph_order_sorts(source):
    """(line, attribute) for every call of sorted whose first argument is
    some X.vertices or X.edges, or a call of some X.received_by: bare, in
    list, tuple or set, or as the iterable of a comprehension.  Sorting
    what is computed from them, such as a closure, is not flagged."""

    def ordered(node):
        if isinstance(node, ast.Attribute) and node.attr in ("vertices", "edges"):
            return node.attr
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "received_by":
            return "received_by"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple", "set") and node.args:
            return ordered(node.args[0])
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return next(filter(None, (ordered(c.iter) for c in node.generators)),
                        None)
        return None

    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted" and node.args
                and (what := ordered(node.args[0]))):
            out.append((node.lineno, what))
    return sorted(out)


def test_graph_order_sorts_are_found():
    source = ("sorted(g.vertices)\nsorted(graph.edges, key=lambda e: e.name)\n"
              "sorted(e.name for e in graph.received_by(v))\n"
              "sorted(set(self.vertices))\n"
              "sorted([(a, b) for a in x for b in y.edges])\n"
              "sorted(vertices)\nsorted(pts, key=lambda x: x.edges)\n"
              "sorted(closure([u(v) for v in graph.vertices], step))\n"
              "list(graph.vertices)\nmin(graph.received_by(v))\n")
    assert graph_order_sorts(source) == [
        (1, "vertices"), (2, "edges"), (3, "received_by"), (4, "vertices"),
        (5, "edges")]


def test_only_graphs_orders_a_graph():
    """A graph sorts its vertices and edges once, when it is built, and a
    groupoid its vertices (a plain name, sorted(vertices), in its
    constructor); every other reader trusts that order."""
    found = {(path.name,) + w for path in MODULES if path.name != "graphs.py"
             for w in graph_order_sorts(path.read_text(encoding="utf-8"))}
    assert sorted(found) == []


def imported_modules(source):
    """(line, module) for every module an import statement names, relative
    imports aside."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.lineno, node.module))
    return sorted(out)


def test_imported_modules_are_found():
    source = ("import os, dataclasses as dc\nfrom dataclasses import field\n"
              "from . import graphs\nfrom .dataclasses import x\n"
              "def f():\n    import dataclasses\n")
    assert imported_modules(source) == [
        (1, "dataclasses"), (1, "os"), (2, "dataclasses"), (6, "dataclasses")]


def test_no_module_imports_dataclasses():
    """The records (Path, Triple, Verdict and the rest) are named tuples,
    hashed and compared in C; a frozen dataclass hashes in Python."""
    found = {(path.name, line) for path in MODULES
             for (line, name) in imported_modules(path.read_text(encoding="utf-8"))
             if name.split(".")[0] == "dataclasses"}
    assert sorted(found) == []


def test_the_command_line_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(selfsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, selfsim.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def function_aliases(source):
    """(line, name, function) for every module-level assignment that binds a
    function defined by a module-level def of the same source to a second
    name."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                isinstance(node.value, ast.Name) and node.value.id in defined:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.extend((node.lineno, t.id, node.value.id) for t in targets
                       if isinstance(t, ast.Name))
    return sorted(out)


def test_function_aliases_are_found():
    source = ("def f():\n    pass\ng = f\nh = k = f\nm: object = f\n"
              "n = len\np = f()\nclass C:\n    q = f\n"
              "def r():\n    s = f\n")
    assert function_aliases(source) == [
        (3, "g", "f"), (4, "h", "f"), (4, "k", "f"), (5, "m", "f")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_binds_each_function_it_defines_once(path):
    """A traced run would charge every call of such a function to one of
    its names: the one the tracer's wrapper happened to be keyed by."""
    assert function_aliases(path.read_text(encoding="utf-8")) == []


def tracer_rows():
    """METHODS and MODULES of the benchmark's tracer, read from its source
    with ast: the tracer patches these by name, so a renamed or moved
    method would break a traced run without failing an import."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("METHODS", "MODULES"):
                out[node.targets[0].id] = ast.literal_eval(node.value)
    return out


def test_the_tracer_patches_what_the_package_defines():
    rows = tracer_rows()
    modules = {m: importlib.import_module("selfsim." + m)
               for m in rows["MODULES"]}
    assert rows["METHODS"]
    for (module, cls, method, _, kind) in rows["METHODS"]:
        found = vars(getattr(modules[module], cls)).get(method)
        assert isinstance(found, types.FunctionType), (module, cls, method)
        assert kind in ("span", "count")
    checks = modules["conditions"].BASE_CHECKS
    assert type(checks) is list
    assert all(type(pair) is tuple and len(pair) == 2 and callable(pair[1])
               for pair in checks)
