"""Property-based fuzzing of the command line: JSON arguments of the right
shape, built from the names of a bundled explicit system plus one unknown
name, must end in exit 0, 1 or 2 and never in a Python exception."""

import contextlib
import functools
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfsim import cli, systems
from selfsim import semigroup as sg
from selfsim.actions import boundary_points_from, point_to_json

from conftest import EXPLICIT_FIXTURES

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
