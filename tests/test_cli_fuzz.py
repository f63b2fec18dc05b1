"""Property-based fuzzing of the command line: JSON arguments of the right
shape, built from the names of a bundled explicit system plus one unknown
name, arbitrary JSON values in every argument slot, and system files with
one field replaced must end in exit 0, 1 or 2 and never in a Python
exception.  The readers of triples, germs and points refuse malformed
shapes with UsageError.  Argvs built from command names, options and JSON
words parse through the dispatch by name as through argparse's top
parser: the same namespace, or the same exit and the same text."""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfsim import cli, germs, systems
from selfsim import semigroup as sg
from selfsim.actions import boundary_points_from, point_from_json, point_to_json
from selfsim.graphs import UsageError

from conftest import EXPLICIT_FIXTURES, FIXTURES, TWO_FIBRE_BUNDLE

UNKNOWN = "nope"


@functools.cache
def _strategies(name):
    """Argument strategies for a bundled system: random words over its
    names plus UNKNOWN, mixed with valid triples, germs, paths and points,
    so that every command also gets arguments it accepts."""
    system = systems.load_fixture(name)
    graph, gpd = system.graph, system.groupoid
    edges = st.sampled_from(sorted(e.name for e in graph.edges) + [UNKNOWN])
    vertices = st.sampled_from(sorted(graph.vertices) + [UNKNOWN])
    elements = st.sampled_from(list(gpd.elements()) + [UNKNOWN])
    word = st.lists(edges, max_size=4)
    points_at = {v: [point_to_json(x) for x in boundary_points_from(graph, v, 3)]
                 for v in graph.vertices}
    valid = [(sg.to_json(t), graph.path_src(t.beta))
             for t in sg.elements_up_to(system.action, 1)]
    path = st.one_of(
        word,
        st.fixed_dictionaries({"edges": word}, optional={"base": vertices}),
        st.sampled_from([{"base": p.base, "edges": list(p.edges)}
                         for p in graph.all_paths(2)]))
    point = st.one_of(
        word,
        st.fixed_dictionaries({}, optional={"prefix": word, "period": word,
                                            "base": vertices}),
        st.sampled_from([x for v in sorted(points_at) for x in points_at[v]]))
    nonzero = st.one_of(
        st.fixed_dictionaries({"alpha": word, "g": elements, "beta": word}),
        st.sampled_from([t for (t, _) in valid]))
    triple = st.one_of(nonzero, st.just({"zero": True}))
    germ = st.one_of(
        st.builds(lambda t, xi: dict(t, xi=xi), nonzero, point),
        st.sampled_from(valid).flatmap(
            lambda tv: st.sampled_from(points_at[tv[1]]).map(
                lambda xi: dict(tv[0], xi=xi))),
        st.just({"zero": True}))
    return {"path": path, "point": point, "triple": triple, "germ": germ,
            "element": elements}


# (command, op, argument kinds); op None for commands without one
CALLS = (
    ("semigroup", "mul", ("triple", "triple")),
    ("semigroup", "leq", ("triple", "triple")),
    ("semigroup", "conj", ("triple", "path")),
    ("germ", "eq", ("germ", "germ")),
    ("germ", "compose", ("germ", "germ")),
    ("germ", "classify", ("germ",)),
    ("germ", "xbar", ("point",)),
    ("hum", None, ("point",)),
    ("twist", "extend", ("element", "path")),
    ("twist", "omega", ("triple", "triple")),
)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_exits_cleanly_on_fuzzed_arguments(data):
    name = data.draw(st.sampled_from(EXPLICIT_FIXTURES), label="system")
    cmd, op, kinds = data.draw(st.sampled_from(CALLS), label="call")
    make = _strategies(name)
    args = [json.dumps(data.draw(make[k], label=k)) for k in kinds]
    argv = [cmd, name] + ([op] if op else []) + args
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# -- dispatch by name against argparse ----------------------------------------


def _parsed(parse, argv):
    """What parse(argv) gives: ("args", the namespace's attributes), or
    ("exit", code, stdout, stderr) when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return ("args", vars(args))


def _argparse(argv):
    return cli._build_parser().parse_args(argv)


COMMAND_WORDS = ["validate", "report", "semigroup", "germ", "twist",
                 "nucleus", "kernel", "hum", "export-dot"]
ARGV_WORDS = COMMAND_WORDS + [
    "nope", "mul", "omega", "verify", "-h", "--help", "--h", "--format",
    "--form", "json", "text", "--scope=strict", "--bound", "--b", "2",
    "--what", "graph", "--", "-", "-1", "x", "{}", "[]", '{"a": 1}',
    "[1, 2]", "{oops", "--unknown", "y"]

ARGV_CASES = [
    [],
    ["nope"],
    ["--", "validate", "x"],
    ["validate", "x", "--unknown", "y"],
    ["report", "x", "--form", "text"],
    ["twist", "--bound", "2", "x", "omega", "{}", "{}"],
    ["semigroup", "x", "mul", "-1", "{}"],
    ["-h"],
    ["--help"],
    ["--h"],
    ["validate"],
    ["validate", "-h"],
    ["report", "x", "--scope=strict", "--format", "json"],
    ["report", "x", "--format", "xml"],
    ["twist", "x", "verify", "--b", "-1"],
    ["twist", "x", "verify", "--", "{}"],
    ["hum", "x", "-"],
    ["export-dot", "x", "--what", "fixing:1", "extra"],
    ["kernel", "x", "--h"],
]


@pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(argv))
def test_dispatch_by_name_parses_as_argparse_does(argv):
    assert _parsed(cli._parse, argv) == _parsed(_argparse, argv)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(COMMAND_WORDS), st.sampled_from(ARGV_WORDS)),
       st.lists(st.sampled_from(ARGV_WORDS), max_size=6))
def test_dispatch_by_name_parses_fuzzed_argvs_as_argparse_does(first, rest):
    """The first word is a command name about half the time."""
    argv = [first] + rest
    assert _parsed(cli._parse, argv) == _parsed(_argparse, argv)


# -- arbitrary JSON values -----------------------------------------------------

# The key names the readers look for, in arguments and in system files.
ARGUMENT_KEYS = ("alpha", "g", "beta", "zero", "xi", "prefix", "period",
                 "base", "edges")
FILE_KEYS = ("name", "notes", "graph", "groupoid", "action", "twist",
             "vertices", "edges", "src", "rng", "kind", "elements", "units",
             "mul", "inv", "fibers", "cyclic", "prefix", "unit", "states",
             "is_unit", "flags", "unit_reflecting", "element_complete",
             "orbit_complete", "edge_action", "restriction", "sigma_G",
             "sigma_bowtie")


def _names(system):
    graph = system.graph
    return sorted({e.name for e in graph.edges} | set(graph.vertices)
                  | set(system.groupoid.elements()))


@functools.cache
def arbitrary_json(keys, names):
    """Any JSON value: null, booleans, small integers, short text (often a
    name of the system), and lists and objects of these under the real key
    names.  Integers stay small: a "cyclic" entry is the order of a group
    whose whole product table the loader builds."""
    leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                       st.text(max_size=3), st.sampled_from(names))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(keys), inner, max_size=3)),
        max_leaves=8)


def _places(node, at=()):
    """The key path of every value in a JSON document, the root included."""
    out = [at]
    if isinstance(node, dict):
        for (k, v) in node.items():
            out += _places(v, at + (k,))
    elif isinstance(node, list):
        for (k, v) in enumerate(node):
            out += _places(v, at + (k,))
    return out


# system_to_json writes every groupoid as an explicit table, so the bundle
# reader meets only this document.
DOCUMENTS = {"two_fibre_bundle": TWO_FIBRE_BUNDLE}


@functools.cache
def _fixture_document(name):
    doc = DOCUMENTS.get(name)
    if doc is None:
        doc = systems.system_to_json(systems.load_fixture(name))
    system = systems.system_from_json(doc)
    return doc, tuple(_names(system)), _places(doc)


# Every operation that reads a JSON argument.
JSON_CALLS = CALLS + (
    ("semigroup", "star", ("triple",)),
    ("semigroup", "length", ("triple",)),
    ("germ", "inverse", ("germ",)),
    ("germ", "in-core", ("germ",)),
)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_exits_cleanly_on_arbitrary_json_arguments(data):
    name = data.draw(st.sampled_from(EXPLICIT_FIXTURES), label="system")
    cmd, op, kinds = data.draw(st.sampled_from(JSON_CALLS), label="call")
    make = _strategies(name)
    junk = arbitrary_json(ARGUMENT_KEYS, _fixture_document(name)[1])
    slot = data.draw(st.integers(0, len(kinds) - 1), label="slot")
    args = [json.dumps(data.draw(
                junk if k == slot else st.one_of(junk, make[kind]), label=kind))
            for (k, kind) in enumerate(kinds)]
    argv = [cmd, name] + ([op] if op else []) + args
    assert _quiet_main(argv) in (0, 1, 2), argv


# -- system files with one field replaced --------------------------------------


def _replaced(node, at, value):
    if not at:
        return value
    if isinstance(node, dict):
        return dict(node, **{at[0]: _replaced(node[at[0]], at[1:], value)})
    return [_replaced(v, at[1:], value) if k == at[0] else v
            for (k, v) in enumerate(node)]


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_cleanly_on_system_files_with_a_field_replaced(tmp_path, data):
    name = data.draw(st.sampled_from(FIXTURES + tuple(DOCUMENTS)),
                     label="system")
    doc, names, places = _fixture_document(name)
    at = data.draw(st.sampled_from(places), label="field")
    value = data.draw(arbitrary_json(FILE_KEYS, names), label="value")
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_replaced(doc, at, value)))
    for argv in (["validate"], ["report"], ["nucleus"], ["kernel"],
                 ["export-dot", "--what", "restriction"]):
        argv = argv[:1] + [str(path)] + argv[1:]
        assert _quiet_main(argv) in (0, 1, 2), (argv, name, at, value)


# -- the three readers ---------------------------------------------------------


TRIPLE = {"alpha": ["e"], "g": "1", "beta": ["e"]}
POINT = {"prefix": [], "period": ["e"], "base": "v"}


def _read_triple(action, data):
    return sg.from_json(action, data)


def _read_germ(action, data):
    return germs.from_json(action, data)


def _read_point(action, data):
    return point_from_json(action.graph, data)


@pytest.mark.parametrize("reader, data", [
    (_read_triple, [1]),
    (_read_triple, {"alpha": ["e"], "beta": ["e"]}),
    (_read_triple, dict(TRIPLE, g=1)),
    (_read_triple, dict(TRIPLE, alpha="ab")),
    (_read_germ, [1]),
    (_read_germ, dict(TRIPLE)),
    (_read_germ, dict(TRIPLE, g=1, xi=POINT)),
    (_read_germ, dict(TRIPLE, alpha="ab", xi=POINT)),
    (_read_germ, dict(TRIPLE, xi=dict(POINT, base=1))),
    (_read_point, [1]),
    (_read_point, dict(POINT, base=1)),
    (_read_point, dict(POINT, prefix="ab")),
    (_read_point, []),
    (_read_point, {"prefix": [], "period": []}),
], ids=["triple-array", "triple-missing-alpha-g", "triple-g-number",
        "triple-alpha-text", "germ-array", "germ-missing-xi", "germ-g-number",
        "germ-alpha-text", "germ-base-number", "point-array",
        "point-base-number", "point-prefix-text", "point-edgeless-array",
        "point-edgeless-object"])
def test_readers_refuse_malformed_shapes(fix, reader, data):
    action = fix("four_loop_z2").action
    with pytest.raises(UsageError):
        reader(action, data)
