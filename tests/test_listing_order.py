"""No answer depends on how a system file lists its graph or its tables.

A graph fixes one order when it is built (vertices sorted, edges sorted by
name), and the tables keep the file's order in their rows, which no scan
may let reach an answer.  So a file whose vertex and edge lists and table
rows are reversed or shuffled must print the same bytes, on stdout and
stderr, with the same exit code, as the file listed in name order, for
every command that reads the graph."""

import json
import random

import pytest

from selfsim import cli, systems
from selfsim.actions import boundary_points_from

from conftest import FIXTURES, TWO_FIBRE_BUNDLE, single_entry_corruptions

# One vertex whose unit swaps its two loops e and f: validate reports the
# unit law at both edges, and must name e first however the file lists them.
UNIT_MOVES_E_AND_F = {
    "name": "unit_moves_e_and_f",
    "graph": {"vertices": ["v"],
              "edges": [{"name": "e", "src": "v", "rng": "v"},
                        {"name": "f", "src": "v", "rng": "v"}]},
    "groupoid": {"kind": "explicit",
                 "elements": [{"name": "u", "src": "v", "rng": "v"}],
                 "units": {"v": "u"}, "mul": [["u", "u", "u"]],
                 "inv": {"u": "u"}},
    "action": {"edge_action": [["u", "e", "f"], ["u", "f", "e"]],
               "restriction": [["u", "e", "u"], ["u", "f", "u"]]},
}

RANDOM = ["random_%02d" % i for i in range(12)]
CORRUPTED = ["corrupted_%s_%d" % (name, i)
             for name in ("four_loop_z2", "twisted_three_spoke")
             for i in range(3)]
CASES = list(FIXTURES) + ["two_fibre_bundle", "unit_moves_e_and_f"] \
    + RANDOM + CORRUPTED


def document(case, fix, random_actions):
    """The system file of a case, its graph listed in name order."""
    if case in FIXTURES:
        return systems.system_to_json(fix(case))
    if case == "two_fibre_bundle":
        return TWO_FIBRE_BUNDLE
    if case == "unit_moves_e_and_f":
        return UNIT_MOVES_E_AND_F
    if case in RANDOM:
        action = random_actions[RANDOM.index(case)]
        return systems.system_to_json(systems.System(case, action))
    name, i = case[len("corrupted_"):].rsplit("_", 1)
    corruptions = list(single_entry_corruptions(fix(name).action))
    # two seeded picks and the last copy, which swaps two edge images
    picks = random.Random(name).sample(corruptions[:-1], 2) + corruptions[-1:]
    return systems.system_to_json(systems.System(case, picks[int(i)][3]))


def table_rows(doc):
    """The row lists of every table of the document: mul or each fibre's
    mul, edge_action, restriction, sigma_G and sigma_bowtie."""
    gpd, twist = doc["groupoid"], doc.get("twist", {})
    out = [gpd["mul"]] if "mul" in gpd else []
    out += [fib["mul"] for fib in gpd.get("fibers", {}).values()
            if "mul" in fib]
    out += [doc["action"]["edge_action"], doc["action"]["restriction"]]
    return out + [twist[key] for key in ("sigma_G", "sigma_bowtie")
                  if key in twist]


def listings(doc):
    """The document with its vertex and edge lists, the rows of each
    table and the keys of inv reversed, and shuffled twice."""
    out = []
    for shuffle in (list.reverse, random.Random(1).shuffle,
                    random.Random(2).shuffle):
        other = json.loads(json.dumps(doc))
        shuffle(other["graph"]["vertices"])
        shuffle(other["graph"]["edges"])
        for rows in table_rows(other):
            shuffle(rows)
        inv = other["groupoid"].get("inv")
        if inv is not None:
            keys = list(inv)
            shuffle(keys)
            other["groupoid"]["inv"] = {k: inv[k] for k in keys}
        out.append(other)
    return out


def commands(doc):
    """Every command that reads the graph, with up to two boundary points
    per vertex for hum and germ xbar."""
    out = [["validate"], ["report"], ["report", "--format", "text"],
           ["kernel"], ["nucleus"], ["export-dot", "--what", "graph"],
           ["export-dot", "--what", "restriction"]]
    graph = systems.graph_from_json(doc["graph"])
    for v in graph.vertices:
        for x in boundary_points_from(graph, v, 2)[:2]:
            point = json.dumps({"base": x.base, "prefix": list(x.prefix),
                                "period": list(x.period)})
            out += [["hum", point], ["germ", "xbar", point]]
    if "twist" in doc:
        out.append(["twist", "verify", "--bound", "1"])
    return out


def answers(capsys, path, argvs):
    out = []
    for argv in argvs:
        code = cli.main([argv[0], path] + argv[1:])
        captured = capsys.readouterr()
        out.append((argv, code, captured.out, captured.err))
    return out


@pytest.mark.parametrize("case", CASES)
def test_answers_do_not_depend_on_listing_order(capsys, tmp_path, fix,
                                                random_actions, case):
    doc = document(case, fix, random_actions)
    argvs = commands(doc)
    expected = None
    for (i, listed) in enumerate([doc] + listings(doc)):
        folder = tmp_path / str(i)
        folder.mkdir()
        path = folder / "system.json"
        path.write_text(json.dumps(listed))
        got = answers(capsys, str(path), argvs)
        if expected is None:
            expected = got
            continue
        differ = [want[0] for (want, have) in zip(expected, got)
                  if have != want]
        assert differ == [], listed["graph"]
