"""Golden snapshots: `selfsim report` must reproduce them byte for byte, in
JSON and in text, and `selfsim twist` its transcripts.

The systems are the bundled fixtures, `zn_rotation(3..5)` and the first
ten seeded random actions of conftest.  The snapshots pin every verdict,
note and witness word, so a refactor of the deciders that changes any of
them shows up here.  The twist transcripts run `twist validate`, `twist
verify --bound 2` and a fixed list of `extend` and `omega` calls on
twisted_three_spoke and on a twist whose phases are sevenths and
elevenths.  The `hum` transcript runs `selfsim hum` at every point of
`boundary_points_from(v, 3)`, for every vertex v of every fixture.  The
DOT transcript runs `export-dot` with `--what graph`, `restriction` and
`fixing:<g>` for every element g of every fixture.  The
help transcript pins `selfsim --help` and every subcommand's `--help` at
80 columns.  To
re-record them (only when a change of output is intended), run from the
repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from unittest import mock

import pytest

from selfsim import cli, systems
from selfsim import semigroup as sg
from selfsim.actions import (SelfSimilarAction, boundary_points_from,
                             point_to_json)
from selfsim.graphs import DirectedGraph
from selfsim.groupoids import cyclic_group_table, group_bundle
from selfsim.twists import Twist

from conftest import FIXTURES, random_action, zn_rotation

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RANDOM_SEED = 20260814   # the seed of conftest's random_actions fixture
FORMATS = (("json", ".json"), ("text", ".txt"))


def golden_systems():
    """(name, System or None) pairs; None means the bundled fixture."""
    out = [(name, None) for name in FIXTURES]
    out += [("zn_rotation_%d" % n, systems.System("zn_rotation_%d" % n,
                                                  zn_rotation(n)))
            for n in (3, 4, 5)]
    rng = random.Random(RANDOM_SEED)
    for k in range(10):
        name = "random_%02d" % k
        out.append((name, systems.System(name, random_action(rng))))
    return out


def report_bytes(name, system, fmt, workdir):
    """stdout of `selfsim report` on the system, in the given format."""
    ref = name
    if system is not None:
        ref = os.path.join(workdir, name + ".json")
        systems.save_system(system, ref)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["report", ref, "--format", fmt])
    assert code == 0, (name, fmt)
    return buf.getvalue()


GOLDEN = golden_systems()


@pytest.mark.parametrize("name,system", GOLDEN, ids=[n for (n, _) in GOLDEN])
def test_report_matches_golden_snapshot(tmp_path, name, system):
    for (fmt, ext) in FORMATS:
        with open(os.path.join(GOLDEN_DIR, name + ext), encoding="utf-8",
                  newline="") as fh:
            expected = fh.read()
        assert report_bytes(name, system, fmt, str(tmp_path)) == expected


def sevenths_and_elevenths():
    """Z_2 swapping two loops, each element its own restriction, with the
    valid twist sigma_G = df for f(c1) = 1/7 and sigma_bowtie(g, x) =
    psi(g·x) - psi(x) for psi(x1) = 1/11: the group table is in sevenths,
    the edge table in elevenths, and omega mixes them into 77ths."""
    graph = DirectedGraph(["v"], [("x0", "v", "v"), ("x1", "v", "v")])
    gpd = group_bundle(["v"], {"v": cyclic_group_table(2, prefix="c")})
    edge_action = {("c0", "x0"): "x0", ("c0", "x1"): "x1",
                   ("c1", "x0"): "x1", ("c1", "x1"): "x0"}
    restriction = {(g, x): g for (g, x) in edge_action}
    action = SelfSimilarAction(graph, gpd, edge_action, restriction)
    return systems.System(
        "sevenths_and_elevenths", action,
        Twist(action, [("c1", "c1", "2/7")],
              [("c1", "x0", "1/11"), ("c1", "x1", "10/11")]))


def twist_calls(action):
    """Argument lists for `twist`: validate, verify at bound 2, extend of
    every element along every path of length 1 or 2 it acts on, and omega
    on every pair of triples with legs of length at most 1."""
    gpd, dump = action.groupoid, json.dumps
    calls = [["validate"], ["verify", "--bound", "2"]]
    for p in action.graph.all_paths(2):
        for g in gpd.elements():
            if p.edges and gpd.src(g) == p.base:
                calls.append(["extend", dump(g), dump(list(p.edges))])
    triples = [sg.to_json(t) for t in sg.elements_up_to(action, 1)]
    calls += [["omega", dump(s), dump(t)] for s in triples for t in triples]
    return calls


def twist_transcript(name, system, workdir):
    """Each call's arguments, stdout, stderr and exit code, in order."""
    ref = name
    if system is not None:
        ref = os.path.join(workdir, name + ".json")
        systems.save_system(system, ref)
    else:
        system = systems.load_fixture(name)
    lines = []
    for args in twist_calls(system.action):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["twist", ref] + args)
        lines.append("$ twist %s %s\n%s%sexit %d\n"
                     % (name, " ".join(args), out.getvalue(), err.getvalue(),
                        code))
    return "".join(lines)


TWIST_GOLDEN = [("twisted_three_spoke", None),
                ("sevenths_and_elevenths", sevenths_and_elevenths())]


@pytest.mark.parametrize("name,system", TWIST_GOLDEN,
                         ids=[n for (n, _) in TWIST_GOLDEN])
def test_twist_matches_golden_transcript(tmp_path, name, system):
    with open(os.path.join(GOLDEN_DIR, "twist_" + name + ".txt"),
              encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert twist_transcript(name, system, str(tmp_path)) == expected


def hum_transcript():
    """`selfsim hum` at every point of length at most 3 from every vertex of
    every fixture: each call's arguments, stdout, stderr and exit code."""
    lines = []
    for name in FIXTURES:
        graph = systems.load_fixture(name).graph
        for v in graph.vertices:
            for x in boundary_points_from(graph, v, 3):
                point = json.dumps(point_to_json(x), sort_keys=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(["hum", name, point])
                lines.append("$ hum %s %s\n%s%sexit %d\n"
                             % (name, point, out.getvalue(), err.getvalue(),
                                code))
    return "".join(lines)


HUM_GOLDEN = os.path.join(GOLDEN_DIR, "hum.txt")


def test_hum_matches_golden_transcript():
    with open(HUM_GOLDEN, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert hum_transcript() == expected


def dot_transcript():
    """`selfsim export-dot` on every fixture: the graph, the restriction
    digraph and the fixing automaton of every element, each call's
    arguments, stdout, stderr and exit code."""
    lines = []
    for name in FIXTURES:
        elements = systems.load_fixture(name).groupoid.elements()
        for what in ["graph", "restriction"] + ["fixing:" + g for g in elements]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["export-dot", name, "--what", what])
            lines.append("$ export-dot %s --what %s\n%s%sexit %d\n"
                         % (name, what, out.getvalue(), err.getvalue(), code))
    return "".join(lines)


DOT_GOLDEN = os.path.join(GOLDEN_DIR, "dot.txt")


def test_dot_matches_golden_transcript():
    with open(DOT_GOLDEN, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert dot_transcript() == expected


SUBCOMMANDS = ("validate", "report", "semigroup", "germ", "twist", "nucleus",
               "kernel", "hum", "export-dot")


def help_transcript():
    """`selfsim --help`, then `selfsim CMD --help` for every subcommand,
    formatted at 80 columns."""
    lines = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
                cli.main(argv)
            lines.append("$ selfsim %s\n%sexit %s\n"
                         % (" ".join(argv), out.getvalue(), exc.value.code))
    return "".join(lines)


HELP_GOLDEN = os.path.join(GOLDEN_DIR, "help.txt")


def test_help_matches_golden_transcript():
    with open(HELP_GOLDEN, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert help_transcript() == expected


def record(workdir):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for (name, system) in GOLDEN:
        for (fmt, ext) in FORMATS:
            out = report_bytes(name, system, fmt, workdir)
            with open(os.path.join(GOLDEN_DIR, name + ext), "w",
                      encoding="utf-8", newline="") as fh:
                fh.write(out)
    for (name, system) in TWIST_GOLDEN:
        with open(os.path.join(GOLDEN_DIR, "twist_" + name + ".txt"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(twist_transcript(name, system, workdir))
    with open(HUM_GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(hum_transcript())
    with open(DOT_GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(dot_transcript())
    with open(HELP_GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(help_transcript())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
    print("recorded %d snapshots in %s"
          % (2 * len(GOLDEN) + len(TWIST_GOLDEN) + 3, GOLDEN_DIR),
          file=sys.stderr)
