"""systems.json_text, the one writer of JSON text: it must print exactly
what json.dumps(value, indent=2, sort_keys=True) prints, plus a newline,
on any value; save_system must write the bytes the stdlib wrote; a save
that fails must leave the old file whole; and a command that prints JSON
must leave no cyclic garbage behind."""

import contextlib
import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import cli, systems
from selfsim.actions import boundary_points_from, point_to_json

from conftest import TWO_FIBRE_BUNDLE, transformation_action, zn_rotation

FIXTURES = sorted(systems.fixture_names())


def outcome(write, value):
    """The text write returns for value, or the type and message of the
    exception it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))


def stdlib_text(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=10 ** 30, max_value=10 ** 60),
    st.floats(),   # NaN and the infinities included
    st.text(),
    # control characters, non-ASCII text and lone surrogates
    st.text(st.characters(codec=None, categories=("Cc", "Cs", "Lo", "So"))))

KEYS = st.one_of(st.text(st.characters(codec=None)), st.integers(),
                 st.floats(), st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # keys of one kind per dict, so that most dicts sort ...
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()),
                        children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
        # ... and mixed keys, which may not
        st.dictionaries(KEYS, children, max_size=3))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.recursive(SCALARS, containers, max_leaves=20))
def test_json_text_matches_the_stdlib(value):
    assert outcome(systems.json_text, value) == outcome(stdlib_text, value)


class Text(str):
    pass


class Table(dict):
    pass


class Row(list):
    pass


EDGE_CASES = {
    "empty": [{}, [], (), {"a": {}, "b": [], "c": ()}],
    "subclasses": Table({Text("k"): Row([Text("v"), 1])}),
    "tuple key": {(1, 2): 3},
    "unsortable keys": {"a": 1, 1: 2},
    "object": [object()],
    "complex key": {"a": {1j: 0}},
    "too many digits": [10 ** 5000],
    "constants beside numbers": [
        [None, True, False, 0, 1, 1.0, -2],
        {"a": None, "b": True, "c": False, "d": 0, "e": 1, "f": 1.0,
         "g": -2}],
    "constant keys": [{True: None, False: 1}, {None: True}],
}


@pytest.mark.parametrize("value", EDGE_CASES.values(), ids=EDGE_CASES)
def test_json_text_matches_the_stdlib_on_edge_cases(value):
    """Subclasses write as their base types; empty containers, a key that
    is not a scalar, keys that do not sort and a value json cannot write
    meet the same text or the same error; None, True and False stay
    apart from the numbers equal to them."""
    assert outcome(systems.json_text, value) == outcome(stdlib_text, value)


def stdlib_save(system, path):
    """save_system as the stdlib's streaming encoder wrote files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(systems.system_to_json(system), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def test_saved_files_match_the_stdlib(tmp_path, random_actions,
                                      wide_random_actions):
    """Every bundled system and every system of the conftest pools."""
    pool = [systems.load_fixture(name) for name in FIXTURES]
    pool.append(systems.system_from_json(TWO_FIBRE_BUNDLE))
    pool += [systems.System("zn_rotation_5", zn_rotation(5)),
             systems.System("transformation", transformation_action())]
    pool += [systems.System("random_%d" % k, action, notes=["pool"])
             for (k, action) in enumerate(random_actions + wide_random_actions)]
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    for system in pool:
        systems.save_system(system, str(ours))
        stdlib_save(system, str(theirs))
        assert ours.read_bytes() == theirs.read_bytes(), system.name


def test_a_failed_save_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "four_loop_z2.json"
    system = systems.load_fixture("four_loop_z2")
    systems.save_system(system, str(path))
    good = path.read_bytes()
    system.notes = [object()]
    with pytest.raises(TypeError):
        systems.save_system(system, str(path))
    assert path.read_bytes() == good


def first_point(name):
    graph = systems.load_fixture(name).graph
    return json.dumps(point_to_json(
        boundary_points_from(graph, min(graph.vertices), 2)[0]))


COMMANDS = {
    "report": lambda name: ["report", name],
    "validate": lambda name: ["validate", name],
    "twist verify": lambda name: ["twist", name, "verify", "--bound", "1"],
    "kernel": lambda name: ["kernel", name],
    "germ xbar": lambda name: ["germ", name, "xbar", first_point(name)],
    "hum": lambda name: ["hum", name, first_point(name)],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_printing_json_leaves_no_cyclic_garbage(command):
    """Each command runs once to warm up, then once more with the collector
    off: nothing it left behind may be garbage only the collector frees.
    A command that refuses a fixture prints nothing and is not counted."""
    counts = {}
    for name in FIXTURES:
        argv = COMMANDS[command](name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
            gc.collect()
            gc.disable()
            try:
                cli.main(argv)
                counts[name] = gc.collect()
            finally:
                gc.enable()
        if not out.getvalue():
            del counts[name]
    assert counts
    assert counts == dict.fromkeys(counts, 0)
