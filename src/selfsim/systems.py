"""System files: one JSON document holding graph, groupoid, action and an
optional twist, plus the bundled example systems.

All names are strings and phases are "p/q" strings, so files diff cleanly
and serialization round-trips bit-exactly.
"""

import itertools
import json
from importlib import resources
from json.encoder import encode_basestring_ascii as _encode_str

from .actions import SelfSimilarAction
from .graphs import (DirectedGraph, GraphError, UsageError, first_repeat,
                     json_name, json_names)
from .groupoids import (BehavioralModel, GroupoidError, ExplicitGroupoid,
                        cyclic_group_table, group_bundle)
from .twists import Twist, TwistError, validate_twist


# A file's "cyclic" fibers may ask for this many product-table entries in
# all (the sum of n² over the fibers): "cyclic": 1000 is the largest one.
_MAX_CYCLIC_ENTRIES = 10 ** 6

# `twist verify` checks the cocycle over at most this many triples, so a
# large --bound is refused before any triple is built (four_loop_z2 has
# 232,562 triples at bound 4 and 3,726,450 at bound 5).
MAX_VERIFY_TRIPLES = 250_000


class SystemLoadError(ValueError):
    """The file cannot be parsed into a system at all (shape/parse errors);
    domain problems are reported by validate_system instead."""


class System:
    def __init__(self, name, action, twist=None, notes=(), problems=()):
        self.name = name
        self.action = action
        self.graph = action.graph
        self.groupoid = action.groupoid
        self.twist = twist
        self.notes = list(notes)
        self.problems = list(problems)   # construction-time domain errors


def _records(rows, what):
    """A JSON array of {"name", "src", "rng"} objects, as name triples."""
    out = [(r["name"], r["src"], r["rng"]) for r in rows]
    json_names(list(itertools.chain.from_iterable(out)), "the names in " + what)
    return out


def _table(rows, what):
    """A JSON array of [first, second, value] name triples, as the dict
    (first, second) -> value.  A key listed twice is refused, where the
    dict would keep its last row silently."""
    if not isinstance(rows, list) or set(map(type, rows)) - {list}:
        raise UsageError("%s must be a JSON array of arrays" % what)
    json_names(list(itertools.chain.from_iterable(rows)), "the entries of " + what)
    try:
        table = {(a, b): c for (a, b, c) in rows}
    except ValueError:
        raise UsageError("each row of %s must hold three names" % what)
    if len(table) < len(rows):
        raise UsageError("%s lists the key %r twice" % (
            what, first_repeat((a, b) for (a, b, _) in rows)))
    return table


def graph_from_json(data):
    return DirectedGraph(json_names(data["vertices"], "'vertices'"),
                         _records(data["edges"], "'edges'"))


def graph_to_json(graph):
    return {
        "vertices": list(graph.vertices),
        "edges": [{"name": e.name, "src": e.src, "rng": e.rng}
                  for e in graph.edges],
    }


def groupoid_from_json(data, vertices):
    kind = data["kind"]
    if kind == "explicit":
        units, inv = data["units"], data["inv"]
        json_names(list(units.values()) + list(inv.values()),
                   "the values of 'units' and 'inv'")
        return ExplicitGroupoid(vertices, _records(data["elements"], "'elements'"),
                                units, _table(data["mul"], "'mul'"), inv)
    if kind == "bundle":
        orders = [fib["cyclic"] for fib in data["fibers"].values()
                  if "cyclic" in fib]
        if any(type(n) is not int or n < 1 for n in orders):
            raise UsageError("'cyclic' must be a positive integer")
        entries = sum(n * n for n in orders)
        if entries > _MAX_CYCLIC_ENTRIES:
            raise UsageError("the 'cyclic' fibers ask for %d table entries; "
                             "at most %d are built"
                             % (entries, _MAX_CYCLIC_ENTRIES))
        fibers = {}
        for (v, fib) in data["fibers"].items():
            if "cyclic" in fib:
                fibers[v] = cyclic_group_table(
                    fib["cyclic"], json_name(fib.get("prefix", ""), "'prefix'"))
            else:
                fibers[v] = {
                    "elements": json_names(fib["elements"], "'elements'"),
                    "unit": json_name(fib["unit"], "'unit'"),
                    "mul": _table(fib["mul"], "the 'mul' of fiber %r" % (v,)),
                }
        return group_bundle(vertices, fibers)
    if kind == "behavioral":
        states = _records(data["states"], "'states'")
        units = [st.get("is_unit", False) for st in data["states"]]
        flags = data.get("flags") or {}
        if set(map(type, units + list(flags.values()))) - {bool}:
            raise UsageError("'is_unit' and the 'flags' must be JSON booleans")
        return BehavioralModel.from_states(
            vertices, [st + (u,) for (st, u) in zip(states, units)], flags)
    raise UsageError("unknown groupoid kind %r" % (kind,))


def groupoid_to_json(gpd):
    if gpd.kind == "behavioral":
        return {
            "kind": "behavioral",
            "states": [{"name": g, "src": gpd.src(g), "rng": gpd.rng(g),
                        "is_unit": gpd.is_unit(g)} for g in gpd.elements()],
            "flags": {
                "unit_reflecting": gpd.unit_reflecting,
                "element_complete": gpd.element_complete,
                "orbit_complete": gpd.orbit_complete,
            },
        }
    return {
        "kind": "explicit",
        "elements": [{"name": g, "src": gpd.src(g), "rng": gpd.rng(g)}
                     for g in gpd.elements()],
        "units": {v: gpd.unit_at(v) for v in gpd.vertices},
        "mul": sorted([a, b, c] for ((a, b), c) in gpd._mul.items()),
        "inv": {g: gpd.inv(g) for g in gpd.elements()},
    }


def action_from_json(data, graph, gpd):
    return SelfSimilarAction(graph, gpd,
                             _table(data["edge_action"], "'edge_action'"),
                             _table(data["restriction"], "'restriction'"))


def action_to_json(action):
    return {
        "edge_action": sorted([g, e, e2] for ((g, e), e2)
                              in action.edge_action.items()),
        "restriction": sorted([g, e, g2] for ((g, e), g2)
                              in action.restriction.items()),
    }


def twist_to_json(twist):
    return {"sigma_G": twist.group_json(), "sigma_bowtie": twist.edge_json()}


def system_from_json(data):
    """The one reader of a system file: a shape error raises
    SystemLoadError, while a twist that does not fit the action is kept as
    a problem for validate_system."""
    if not isinstance(data, dict):
        raise SystemLoadError("a system file must be a JSON object")
    for key in ("graph", "groupoid", "action"):
        if key not in data:
            raise SystemLoadError("missing %r section" % (key,))
    section, twist, problems = "graph", None, []
    try:
        graph = graph_from_json(data["graph"])
        section = "groupoid"
        gpd = groupoid_from_json(data["groupoid"], graph.vertices)
        section = "action"
        action = action_from_json(data["action"], graph, gpd)
        section = "twist"
        if "twist" in data:
            tw = data["twist"]
            try:
                twist = Twist(action, *[_table(tw.get(key, []), repr(key))
                                        for key in ("sigma_G", "sigma_bowtie")])
            except (TwistError, GraphError, GroupoidError) as exc:
                problems.append("twist: %s" % (exc,))
        section = "top-level"
        name = json_name(data.get("name", ""), "'name'")
        notes = json_names(data.get("notes", []), "'notes'")
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError, UsageError) as exc:
        # a missing key or a value of the wrong JSON type
        raise SystemLoadError("bad %s section: %s" % (section, exc))
    return System(name, action, twist, notes=notes, problems=problems)


def system_to_json(system):
    out = {
        "name": system.name,
        "graph": graph_to_json(system.graph),
        "groupoid": groupoid_to_json(system.groupoid),
        "action": action_to_json(system.action),
    }
    if system.twist is not None:
        out["twist"] = twist_to_json(system.twist)
    if system.notes:
        out["notes"] = list(system.notes)
    return out


def validate_system(system):
    """Every structural and algebraic check, as a flat list of problems."""
    problems = list(system.problems)
    problems += system.action.validate()
    if system.twist is not None and not problems:
        problems += ["twist: " + m for m in validate_twist(system.twist)]
    return problems


def load_system(path):
    try:
        # one binary read and a strict decode: json.loads on the bytes would
        # take a UTF-8 BOM and lone surrogates, which are refused here
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise SystemLoadError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SystemLoadError("not valid JSON: %s" % (exc,))
    except UnicodeDecodeError as exc:
        raise SystemLoadError("not valid UTF-8: %s" % (exc,))
    except RecursionError:
        raise SystemLoadError("JSON nested too deeply to read")
    return system_from_json(data)


def json_text(value):
    """The one writer of JSON text: exactly
    json.dumps(value, indent=2, sort_keys=True) + "\n".  The stdlib's
    indent encoder runs a chain of generator frames for every line, and
    its closures, which refer to each other, leave cycles for the
    collector on every call."""
    out = []
    _write_json(value, out.append, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(value, append, newline):
    """Append value's text; newline is the line break plus the indent of
    value's own line.  A module-level function fed append, not a closure
    that calls itself, so that a call leaves no reference cycle.  The three
    constants are tested by identity, so 1 and 0 stay numbers."""
    if isinstance(value, str):
        append(_encode_str(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # json sorts the items by their original keys, then converts them
        for (key, item) in sorted(value.items()):
            append(sep)
            append(_encode_str(key if isinstance(key, str) else _json_key(key)))
            append(": ")
            _write_json(item, append, inner)
            sep = "," + inner
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            append(sep)
            _write_json(item, append, inner)
            sep = "," + inner
        append(newline + "]")
    else:
        append(json.dumps(value))


def _json_key(key):
    """A non-string key as json converts it: a number, bool or None as its
    JSON text, anything else refused."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(key).__name__)


def save_system(system, path):
    """Write the system's file.  The text is made before the file is
    opened, so a value that cannot be written leaves an old file whole."""
    text = json_text(system_to_json(system))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- bundled examples -------------------------------------------------------


def fixture_names():
    root = resources.files("selfsim").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_fixture(name):
    text = (resources.files("selfsim").joinpath("fixtures")
            .joinpath(name + ".json").read_text(encoding="utf-8"))
    return system_from_json(json.loads(text))
